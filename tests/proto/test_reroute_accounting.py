"""A re-routed ResultSubmit is charged for what it carries.

A node that receives a submission for a vertex it is not primary for
forwards a ``reroute=True`` copy onward; the copy holds the same
aggregate states as the original, so its modelled size is the same.
"""

from repro.core.query import QueryDescriptor
from repro.proto import codec
from repro.proto.messages import ResultSubmit


def _submit(reroute: bool) -> ResultSubmit:
    descriptor = QueryDescriptor(
        query_id=1,
        sql="SELECT COUNT(*) FROM Flow",
        now_binding=None,
        origin=2,
        injected_at=0.0,
        lifetime=3600.0,
    )
    return ResultSubmit(
        descriptor=descriptor,
        vertex_id=3,
        contributor=4,
        submitter=5,
        version=1,
        result={"states": [1.0, 2.0, 3.0], "rows": []},
        reroute=reroute,
    )


def test_reroute_copy_is_charged_like_the_original():
    direct, rerouted = _submit(False), _submit(True)
    assert codec.result_states_size(direct.result) > 0
    assert rerouted.body_size() == direct.body_size()
