"""HostSampler: wall shares by label, line ranges, untimed and inclusive
labels, and the signal state it borrows.

Every measured region is a wall-duration spin, so a loaded machine
stretches nothing: the sampler's interval timer runs on wall time too.
"""

import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import repro
from repro.obs.sampler import OTHER, UNTIMED, HostSampler, Inclusive

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is 3.11+")


def _spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def _spin_a(seconds: float) -> None:
    _spin(seconds)


def _spin_b(seconds: float) -> None:
    _spin(seconds)


def _halves(seconds: float) -> None:
    _spin(seconds)
    _spin(seconds)


def _untimed(seconds: float) -> None:
    _spin_a(seconds)


def _outer(seconds: float) -> None:
    _spin_a(seconds)


FIRST_HALF = _halves.__code__.co_firstlineno + 1
LABELS = {
    "_spin_a": "a",
    "_spin_b": "b",
    "_untimed": UNTIMED,
    "_outer": Inclusive("outer"),
}


def classify(path: str, qualname: str, line: int | None):
    if path != __file__:
        return None
    if qualname == "_halves":
        return "first" if line == FIRST_HALF else "second"
    return LABELS.get(qualname)


def shares(counts) -> dict[str, float]:
    total = sum(counts.values())
    return {label: n / total for label, n in counts.items()}


def test_shares_follow_wall_time():
    with HostSampler(classify) as sampler:
        _spin_a(0.3)
        _spin_b(0.1)
    assert sum(sampler.counts.values()) > 100
    assert shares(sampler.counts)["a"] == pytest.approx(0.75, abs=0.1)


def test_a_line_range_labels_part_of_a_function():
    with HostSampler(classify) as sampler:
        _halves(0.1)
    got = shares(sampler.counts)
    assert got["first"] == pytest.approx(0.5, abs=0.1)
    assert got["second"] == pytest.approx(0.5, abs=0.1)


def test_untimed_is_dropped_and_inclusive_wins_over_inner_labels():
    with HostSampler(classify) as sampler:
        _untimed(0.1)
        _outer(0.1)
        _spin_b(0.1)
    counts = sampler.counts
    assert "a" not in counts and UNTIMED not in counts
    assert counts["outer"] == pytest.approx(counts["b"], rel=0.3)
    assert counts[OTHER] <= 0.05 * sum(counts.values())


class TestSignalState:
    @pytest.fixture
    def previous(self):
        """A handler and a slow timer of someone else's, put back after."""

        def handler(signum, frame):
            pass

        old = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, 100.0, 50.0)
        yield handler
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)

    def assert_restored(self, handler):
        assert signal.getsignal(signal.SIGALRM) is handler
        delay, interval = signal.getitimer(signal.ITIMER_REAL)
        assert interval == 50.0 and 99.0 < delay <= 100.0

    def test_stop_restores_handler_and_timer(self, previous):
        sampler = HostSampler(classify)
        sampler.start()
        assert signal.getsignal(signal.SIGALRM) is not previous
        sampler.stop()
        self.assert_restored(previous)

    def test_an_exception_inside_restores_them(self, previous):
        with pytest.raises(ValueError), HostSampler(classify):
            raise ValueError("inside")
        self.assert_restored(previous)

    def test_a_second_start_raises(self, previous):
        sampler = HostSampler(classify)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()
        self.assert_restored(previous)


def test_import_repro_obs_leaves_the_sampler_out():
    src = Path(repro.__file__).resolve().parents[1]
    code = "import sys, repro.obs; sys.exit('repro.obs.sampler' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert done.returncode == 0


def test_split_tables_name_live_code():
    """Every rule of ``tools/split.py``'s tables names a file and a function
    that exist, its first-line rules resolve, and each workload's module
    times at least one region — so a rename fails here, not in a smoke run."""
    import ast
    import importlib.util
    from fnmatch import fnmatchcase

    root = Path(repro.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("split_tool", root / "tools" / "split.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    package = root / "src" / "repro"

    def qualnames(path: Path) -> list[str]:
        names = []

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    names.append(prefix + child.name)
                    local = ".<locals>." if isinstance(child, ast.FunctionDef) else "."
                    walk(child, prefix + child.name + local)

        walk(ast.parse(path.read_text()), "")
        return names

    for workload, rules in tool.STEPS.items():
        module = root / "benchmarks" / "perf" / "perfbench" / "workloads" / f"{workload}.py"
        assert tool.untimed_lines(module), workload
        tool.classifier(rules, module)  # resolves every first line, or exits
        for where, name, *_ in rules:
            files = [
                f for f in package.rglob("*.py")
                if any(fnmatchcase(str(f.relative_to(package)), w) for w in where.split())
            ]
            assert any(fnmatchcase(q, name) for f in files for q in qualnames(f)), (where, name)
