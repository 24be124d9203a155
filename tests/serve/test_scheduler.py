"""AsyncioScheduler: the simulator scheduling surface over a live loop."""

import asyncio

import pytest

from repro.serve.scheduler import AsyncioScheduler


def run(coro):
    return asyncio.run(coro)


def test_now_advances_monotonically():
    async def main():
        scheduler = AsyncioScheduler()
        first = scheduler.now
        await asyncio.sleep(0.02)
        second = scheduler.now
        assert 0 <= first < second

    run(main())


def test_schedule_fires_with_args():
    async def main():
        scheduler = AsyncioScheduler()
        fired = []
        scheduler.schedule(0.01, fired.append, "a")
        scheduler.schedule(0.0, fired.append, "b")
        scheduler.schedule(-5.0, fired.append, "c")  # negative clamps to 0
        await asyncio.sleep(0.05)
        assert sorted(fired) == ["a", "b", "c"]
        assert scheduler.events_fired == 3

    run(main())


def test_schedule_at_absolute_time():
    async def main():
        scheduler = AsyncioScheduler()
        fired = []
        scheduler.schedule_at(scheduler.now + 0.02, fired.append, 1)
        await asyncio.sleep(0.06)
        assert fired == [1]

    run(main())


def test_cancel_prevents_firing():
    async def main():
        scheduler = AsyncioScheduler()
        fired = []
        handle = scheduler.schedule(0.02, fired.append, 1)
        handle.cancel()
        await asyncio.sleep(0.05)
        assert fired == []

    run(main())


def test_periodic_fires_and_cancels():
    async def main():
        scheduler = AsyncioScheduler()
        fired = []
        timer = scheduler.schedule_periodic(0.01, lambda: fired.append(1))
        assert timer.period == 0.01
        await asyncio.sleep(0.06)
        timer.cancel()
        assert timer.cancelled
        count = len(fired)
        assert count >= 2
        await asyncio.sleep(0.03)
        assert len(fired) == count  # no firings after cancel

    run(main())


def test_periodic_first_delay():
    async def main():
        scheduler = AsyncioScheduler()
        fired = []
        timer = scheduler.schedule_periodic(
            10.0, lambda: fired.append(scheduler.now), first_delay=0.01
        )
        await asyncio.sleep(0.04)
        timer.cancel()
        assert len(fired) == 1  # first fire early, next one 10 s out

    run(main())


def test_periodic_keeps_ticking_after_callback_raises():
    async def main():
        scheduler = AsyncioScheduler()
        ticks = []

        def tick():
            ticks.append(1)
            if len(ticks) == 1:
                raise RuntimeError("first tick fails")

        timer = scheduler.schedule_periodic(0.01, tick)
        await asyncio.sleep(0.08)
        timer.cancel()
        assert len(ticks) >= 2  # re-armed although the first tick raised

    run(main())


def test_periodic_rejects_nonpositive_period():
    async def main():
        scheduler = AsyncioScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule_periodic(0.0, lambda: None)

    run(main())


def test_callback_exception_is_contained():
    async def main():
        scheduler = AsyncioScheduler()
        fired = []

        def boom():
            raise RuntimeError("scheduled failure")

        scheduler.schedule(0.0, boom)
        scheduler.schedule(0.01, fired.append, "after")
        await asyncio.sleep(0.05)
        assert fired == ["after"]  # the loop survived the exception

    run(main())


def test_time_scale_compresses_protocol_time():
    async def main():
        scheduler = AsyncioScheduler(time_scale=100.0)
        fired = []
        # 1 protocol second = 10 wall milliseconds at scale 100.
        scheduler.schedule(1.0, fired.append, 1)
        await asyncio.sleep(0.05)
        assert fired == [1]
        assert scheduler.now > 1.0

    run(main())


def test_rejects_nonpositive_time_scale():
    with pytest.raises(ValueError):
        AsyncioScheduler(time_scale=0.0)
