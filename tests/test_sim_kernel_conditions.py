"""Edge cases of AnyOf composition and failure handling."""


from repro.sim import AnyOf, Environment


def test_any_of_fails_when_member_fails():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield env.any_of([gate, env.timeout(100)])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    gate.fail(RuntimeError("member failed"))
    env.run(until=10)
    assert caught == ["member failed"]


def test_late_failure_after_condition_fired_is_defused():
    env = Environment()
    gate = env.event()
    fired_at = []

    def waiter():
        yield AnyOf(env, [env.timeout(1), gate])
        fired_at.append(env.now)

    env.process(waiter())

    def late_failer():
        yield env.timeout(5)
        gate.fail(RuntimeError("too late to matter"))

    env.process(late_failer())
    env.run()  # must not raise: the condition already fired
    assert fired_at == [1]


def test_nested_conditions():
    env = Environment()
    inner = AnyOf(env, [env.timeout(3, value="a"), env.timeout(9, value="b")])
    outer = AnyOf(env, [inner, env.timeout(5, value="c")])
    log = []

    def waiter():
        fired = yield outer
        log.append((env.now, list(fired), list(fired[inner].values())))

    env.process(waiter())
    env.run()
    assert log == [(3, [inner], ["a"])]


def test_condition_value_maps_fired_events_only():
    env = Environment()
    seen = {}

    def waiter():
        fast = env.timeout(1, value="fast")
        slow = env.timeout(10, value="slow")
        result = yield AnyOf(env, [fast, slow])
        seen.update(result)

    env.process(waiter())
    env.run(until=20)
    assert list(seen.values()) == ["fast"]


def test_shared_event_across_conditions():
    env = Environment()
    gate = env.event()
    order = []

    def waiter(tag, condition):
        yield condition
        order.append((tag, env.now))

    env.process(waiter("one", AnyOf(env, [gate])))
    env.process(waiter("two", AnyOf(env, [env.timeout(9), gate])))

    def opener():
        yield env.timeout(2)
        gate.succeed("open")

    env.process(opener())
    env.run()
    assert sorted(order) == [("one", 2), ("two", 2)]
