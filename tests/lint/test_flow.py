"""The whole-program flow pass: index, call graph, taint, FLOW rules.

The ``flowpkg`` fixture package is the ground truth: every module is one
scenario with a known chain, and these tests pin the **exact** finding
set and the call-graph snapshot.  Any fixture edit must update both.
"""

import json
from pathlib import Path

from repro.lint import JSON_SCHEMA_V1, JSON_SCHEMA_V2, LintConfig, lint_paths
from repro.lint.engine import collect_files
from repro.lint.flow import FlowProject, build_callgraph, build_index

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FLOWPKG = FIXTURES / "flowpkg"
GOLDEN = FIXTURES / "flowpkg_callgraph.json"

FLOW_ONLY = frozenset({"FLOW001", "FLOW002", "FLOW003", "FLOW004"})


def flow_config(**overrides) -> LintConfig:
    defaults = dict(select=FLOW_ONLY, flow_entry_fragments=("flowpkg/",))
    defaults.update(overrides)
    return LintConfig(**defaults)


def run_flow(**overrides):
    return lint_paths([FLOWPKG], flow_config(**overrides))


def key(finding) -> tuple:
    return (finding.code, Path(finding.path).name, finding.line)


class TestCallGraphSnapshot:
    def build(self):
        cfg = flow_config()
        files = collect_files([FLOWPKG])
        index = build_index(files, cfg)
        return index, build_callgraph(index, cfg), cfg

    def test_matches_golden(self):
        index, graph, cfg = self.build()
        project = FlowProject(index, graph, cfg)
        actual = {
            "modules": sorted(index.modules),
            "entry_points": [fn.qname for fn in project.entry_points()],
            "edges": [
                {
                    "caller": s.caller,
                    "callee": s.callee,
                    "line": s.lineno,
                    "col": s.col,
                    "guarded": s.guarded,
                }
                for s in graph.edges()
            ],
        }
        golden = json.loads(GOLDEN.read_text())
        assert actual == golden, (
            "call graph drifted from the golden snapshot — if the fixture "
            "change is intentional, regenerate tests/lint/fixtures/"
            "flowpkg_callgraph.json"
        )

    def test_mro_dispatch_and_guard_marks(self):
        _, graph, _ = self.build()
        edges = {(s.caller, s.callee): s for s in graph.edges()}
        # Inherited scalar twin: SymChild.put_many -> Sym.insert via MRO.
        assert ("flowpkg.batchapi.SymChild.put_many", "flowpkg.batchapi.Sym.insert") in edges
        # The OBS.enabled guard is recorded on the edge, per call site.
        assert edges[("flowpkg.obsflow.guarded_op", "flowpkg.obsflow._record")].guarded
        assert not edges[("flowpkg.obsflow.unguarded_op", "flowpkg.obsflow._record")].guarded


class TestFixtureFindings:
    EXPECTED = {
        ("FLOW001", "deep.py", 14),
        ("FLOW001", "direct.py", 10),
        ("FLOW002", "rngflow.py", 15),
        ("FLOW002", "rngflow.py", 18),
        ("FLOW002", "rngflow.py", 21),
        ("FLOW003", "batchapi.py", 7),
        ("FLOW003", "batchapi.py", 21),
        ("FLOW003", "batchapi.py", 93),  # inherited read_batch, drifting _batch hook
        ("FLOW004", "obsflow.py", 20),
    }

    def test_exact_finding_set(self):
        report = run_flow()
        assert {key(f) for f in report.findings} == self.EXPECTED
        assert all(not f.suppressed for f in report.findings)

    def test_suppressed_at_either_endpoint(self):
        report = run_flow(show_suppressed=True)
        extra = {key(f) for f in report.findings if f.suppressed}
        assert extra == {
            ("FLOW001", "suppressed_src.py", 6),  # ignore[] on the def line
            ("FLOW001", "suppressed_sink.py", 10),  # ignore[] on the sink line
        }
        # Suppressed findings never fail the gate.
        assert {key(f) for f in report.failures} == self.EXPECTED

    def test_transitive_chain_frames(self):
        report = run_flow()
        (finding,) = [f for f in report.findings if key(f) == ("FLOW001", "deep.py", 14)]
        assert "3 calls deep" in finding.message
        assert [(fn, Path(p).name, line) for fn, p, line in finding.chain] == [
            ("flowpkg.deep.simulate", "deep.py", 17),
            ("flowpkg.deep._hop1", "deep.py", 11),
            ("flowpkg.deep._hop2", "deep.py", 7),
            ("flowpkg.sinks.now", "sinks.py", 8),
        ]

    def test_entropy_reported_at_depth_zero(self):
        report = run_flow()
        (finding,) = [f for f in report.findings if key(f) == ("FLOW001", "direct.py", 10)]
        assert "os.urandom" in finding.message
        assert len(finding.chain) == 1

    def test_depth_zero_per_file_kinds_left_to_det_rules(self):
        # sinks.now calls time.time() directly and is itself an entry
        # point — that is DET001's finding, never FLOW001's.
        report = run_flow()
        assert not any(Path(f.path).name == "sinks.py" for f in report.findings)

    def test_guarded_caller_is_clean(self):
        report = run_flow()
        assert not any(
            f.code == "FLOW004" and "guarded_op" in f.message and "unguarded" not in f.message
            for f in report.findings
        )

    def test_rng_stays_contained(self):
        report = run_flow()
        assert not any(
            f.code == "FLOW002" and f.line > 24 for f in report.findings
        ), "the Contained class must not trigger FLOW002"


class TestSinkJustification:
    def test_per_file_suppression_at_sink_kills_the_taint(self, tmp_path):
        """``ignore[DET001]`` at the sink = locally justified, no chains."""
        pkg = tmp_path / "justpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def _helper():\n"
            "    return time.time()  # repro-lint: ignore[DET001]\n"
            "\n"
            "\n"
            "def simulate():\n"
            "    return _helper()\n"
        )
        cfg = LintConfig(select=FLOW_ONLY, flow_entry_fragments=("justpkg/",))
        report = lint_paths([pkg], cfg, jobs=1)
        assert report.findings == []
        # ... and it is not merely hiding as a suppressed finding:
        cfg = LintConfig(
            select=FLOW_ONLY,
            flow_entry_fragments=("justpkg/",),
            show_suppressed=True,
        )
        assert lint_paths([pkg], cfg).findings == []


class TestSchemaVersioning:
    def test_flow_run_emits_v2_with_chains(self):
        report = run_flow()
        assert report.schema == JSON_SCHEMA_V2
        payload = report.to_json()
        assert payload["version"] == JSON_SCHEMA_V2
        assert all("chain" in f for f in payload["findings"])
        deep = [
            f
            for f in payload["findings"]
            if f["code"] == "FLOW001" and f["path"].endswith("deep.py")
        ]
        assert deep[0]["chain"][0]["function"] == "flowpkg.deep.simulate"
        assert set(deep[0]["chain"][0]) == {"function", "path", "line"}

    def test_rule_only_run_stays_v1(self):
        cfg = LintConfig(select=frozenset({"DET001"}))
        report = lint_paths([FLOWPKG], cfg)
        assert report.schema == JSON_SCHEMA_V1
        payload = report.to_json()
        assert payload["version"] == JSON_SCHEMA_V1
        assert all("chain" not in f for f in payload["findings"])


class TestJobsDeterminism:
    def test_v2_json_byte_identical_across_jobs(self):
        """The acceptance bar: byte-identical v2 reports at any --jobs."""
        cfg = LintConfig(flow_entry_fragments=("flowpkg/",))
        dumps = [
            json.dumps(
                lint_paths([FLOWPKG], cfg, jobs=jobs).to_json(),
                indent=2,
                sort_keys=True,
            )
            for jobs in (1, 2, 8)
        ]
        assert dumps[0] == dumps[1] == dumps[2]
