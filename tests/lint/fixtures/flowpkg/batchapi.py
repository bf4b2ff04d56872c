"""FLOW003 scenarios: batch/serial API symmetry."""


class NoTwin:
    """Defines the batch op only — no scalar ``read`` anywhere."""

    def read_batch(self, offsets):
        return [0.0 for _ in offsets]


class Asym:
    """``put_many`` bumps a counter the scalar ``insert`` never touches."""

    def __init__(self) -> None:
        self.data = {}
        self.batch_calls = 0

    def insert(self, key, value) -> None:
        self.data[key] = value

    def put_many(self, pairs) -> None:
        self.batch_calls += 1
        for key, value in pairs:
            self.data[key] = value


class Sym:
    """The compliant shape: the batch op is a loop over the scalar op."""

    def __init__(self) -> None:
        self.data = {}

    def insert(self, key, value) -> None:
        self.data[key] = value

    def put_many(self, pairs) -> None:
        insert = self.insert
        for key, value in pairs:
            insert(key, value)


class SymChild(Sym):
    """Overriding the batch op while inheriting the scalar twin is fine."""

    def put_many(self, pairs) -> None:
        for key, value in pairs:
            self.insert(key, value)


class LoopBase:
    """The shared-base shape: the batch op lives on the base as a loop over
    a scalar op that only subclasses implement."""

    def insert(self, key, value) -> None:
        raise NotImplementedError

    def put_many(self, pairs) -> None:
        insert = self.insert
        for key, value in pairs:
            insert(key, value)


class InheritsBatch(LoopBase):
    """Inheriting the batch op and defining only the scalar twin is fine."""

    def __init__(self) -> None:
        self.data = {}

    def insert(self, key, value) -> None:
        self.data[key] = value


class HookBase:
    """The device shape: scalar and batch ops live on the base, both built
    on hooks (``_service``, ``_batch``) that subclasses override."""

    clock = 0.0

    def _service(self, offset) -> float:
        raise NotImplementedError

    def read(self, offset) -> float:
        self.clock = self._service(offset)
        return self.clock

    def read_batch(self, offsets):
        return self._batch(offsets)

    def _batch(self, offsets):
        return [self.read(offset) for offset in offsets]


class HookOverrideDrifts(HookBase):
    """Inherits ``read_batch``, but its ``_batch`` override counts batches —
    state the scalar path of this class never touches."""

    batches = 0

    def _service(self, offset) -> float:
        return self.clock + 1.0

    def _batch(self, offsets):
        self.batches += 1
        return [self.read(offset) for offset in offsets]


class HookOverrideFaithful(HookBase):
    """An inlined ``_batch`` inside the scalar path's footprint is fine."""

    def _service(self, offset) -> float:
        return self.clock + 1.0

    def _batch(self, offsets):
        out = []
        for _ in offsets:
            self.clock = self.clock + 1.0
            out.append(self.clock)
        return out
