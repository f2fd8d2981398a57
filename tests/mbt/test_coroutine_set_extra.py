"""Additional coroutine tests: OS-thread stress."""

from repro.mbt import Done, OSThreadSuspendable


class TestOsThreadStress:
    def test_many_sequential_suspendables(self):
        """Creating and closing many OS-thread coroutines must not leak
        or deadlock."""
        for index in range(50):
            def body(channel, i=index):
                value = channel.call(("ping", i))
                return value * 2

            susp = OSThreadSuspendable(body)
            request = susp.resume()
            assert request == ("ping", index)
            outcome = susp.resume(index)
            assert isinstance(outcome, Done)
            assert outcome.result == index * 2

    def test_deep_handoff_chain(self):
        """A long ping-pong across one OS-thread coroutine."""

        def body(channel):
            total = 0
            for _ in range(500):
                total += channel.call("more")
            return total

        susp = OSThreadSuspendable(body)
        request = susp.resume()
        count = 0
        while not isinstance(request, Done):
            count += 1
            request = susp.resume(1)
        assert count == 500
        assert request.result == 500

    def test_interleaved_sets(self):
        """Two independent OS-thread coroutines interleaved arbitrarily."""

        def body(channel):
            values = [channel.call("x") for _ in range(10)]
            return sum(values)

        first, second = OSThreadSuspendable(body), OSThreadSuspendable(body)
        r1, r2 = first.resume(), second.resume()
        total = 0
        for i in range(10):
            r1 = first.resume(i)
            r2 = second.resume(i * 10)
        assert isinstance(r1, Done) and r1.result == sum(range(10))
        assert isinstance(r2, Done) and r2.result == sum(range(10)) * 10
