"""The four workloads: set-up, the timed op, and the checks of its result.

``run(op)`` is the timed part: the calls into mbqc (or the mbqc CLI
subprocess) that a user of the workbench would make.  ``verify(op, result)``
runs between ops, outside the timed region, and checks the result against
the reference checkers, a property the paper proves, or an answer computed
during set-up.  It returns False for an op that failed (counted in
``failed``) and appends to ``errors`` for a wrong answer.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import refcheck
from mbqc import corpus, documents
from mbqc.angles import Angle
from mbqc.flows import (
    FlowCertificate,
    StrictPartialOrder,
    check_extended_pauli_flow,
    check_pauli_flow,
    find_extended_pauli_flow,
    find_inducing_certificate,
    find_pauli_flow,
    induced_pattern,
    is_induced_by,
)
from mbqc.notation import parse_pattern
from mbqc.patterns import is_pauli_first
from mbqc.rewrite import normalize_pauli_first, pauli_inversions
from mbqc.simulate import choi_distance, is_robustly_deterministic, semantics

TOL = 1e-9


class Workload:
    def __init__(self, seed: int, tracer, workdir: Path) -> None:
        self.seed = seed
        self.tr = tracer
        self.workdir = workdir
        self.errors: list[str] = []
        self.ops: list = []

    def generate(self, name, fn):
        return self.tr.call(name, fn)

    def oracle(self, pat):
        rep = self.tr.call("simulate.is_robustly_deterministic", is_robustly_deterministic, pat)
        self.tr.count("simulate.steps", len(rep.steps))
        return rep

    def patterns(self) -> list:
        """The patterns the oracle sees first in each op."""
        return []

    def search(self, name, fn, arg):
        cert = self.tr.call(name, fn, arg)
        self.tr.count("flows.searches")
        self.tr.count("flows.found", cert is not None)
        return cert

    def fail(self, where, message: str) -> None:
        self.errors.append(f"{where}: {message}")

    def finish(self) -> None:
        """Checks made once, after the timed passes."""


# ---------------------------------------------------------------------------


class FlowSearch(Workload):
    name = "flow-search"

    def setup(self) -> None:
        self.ops = [
            (i, case, inputs.ref_of(case.graph))
            for i, case in enumerate(inputs.flow_search_cases(self.seed, self.generate))
        ]
        self.found: dict[int, FlowCertificate] = {}

    def run(self, op):
        _, case, _ = op
        og = case.graph
        pf = self.search("flows.find_pauli_flow", find_pauli_flow, og)
        epf = self.search("flows.find_extended_pauli_flow", find_extended_pauli_flow, og)
        pf_ok = pf is None or self.tr.call("flows.check", check_pauli_flow, og, pf.p_map(), pf.order)
        epf_ok = epf is None or self.tr.call("flows.check", check_extended_pauli_flow, og, epf)
        return pf, epf, pf_ok, epf_ok

    def verify(self, op, result) -> bool:
        i, case, ref = op
        pf, epf, pf_ok, epf_ok = result
        where = f"{case.source} graph {case.graph}"
        if (pf is None) != (epf is None):
            self.fail(where, "find_pauli_flow and find_extended_pauli_flow disagree on existence")
        if case.must_have_flow and (pf is None or epf is None):
            self.fail(where, "no certificate for a graph with a flow")
        if pf is not None:
            p, order, _ = inputs.ref_cert(pf)
            err = refcheck.pauli_flow_violation(ref, p, order)
            if not pf_ok or err is not None:
                self.fail(where, f"Pauli certificate rejected: {err or 'check_pauli_flow'}")
        if epf is not None:
            if not epf_ok:
                self.fail(where, "extended certificate rejected by check_extended_pauli_flow")
            self.found.setdefault(i, epf)
        return True

    def finish(self) -> None:
        # Sufficiency on a seeded few: the induced pattern of a found extended
        # flow is robustly deterministic, for seeded angles.
        rng = random.Random(f"flow-search-induced:{self.seed}")
        cases = {i: case for i, case, _ in self.ops}
        for i in rng.sample(sorted(self.found), min(6, len(self.found))):
            og, cert = cases[i].graph, self.found[i]
            angles = rng.choice(corpus.angle_assignments(og, seed=self.seed))
            total = cert.order.canonical_extension()
            pat = induced_pattern(og, cert.p_map(), cert.order, total, angles)
            if not is_robustly_deterministic(pat, TOL):
                self.fail(f"graph {og}", "induced pattern of an extended flow is not deterministic")


# ---------------------------------------------------------------------------


class DeterminismWide(Workload):
    name = "determinism-wide"

    def setup(self) -> None:
        self.ops = []
        for case in inputs.wide_cases(self.seed):
            # The paper's iff: deterministic exactly when some extended flow
            # induces the pattern.
            expected = find_inducing_certificate(case.pattern) is not None
            if case.flow_induced and not expected:
                raise RuntimeError(f"{case.shape}: no inducing certificate for a flow-induced pattern")
            self.ops.append((case, expected))

    def patterns(self) -> list:
        return [case.pattern for case, _ in self.ops]

    def run(self, op):
        return self.oracle(op[0].pattern)

    def verify(self, op, report) -> bool:
        case, expected = op
        if case.flow_induced and not report.ok:
            self.fail(case.shape, "a flow-induced pattern is not robustly deterministic")
        if report.ok != expected:
            self.fail(case.shape, f"verdict {report.ok}, but an inducing certificate exists: {expected}")
        return True


# ---------------------------------------------------------------------------


class DeterminismCorpus(Workload):
    name = "determinism-corpus"

    def setup(self) -> None:
        self.ops = inputs.corpus_sample(self.seed, self.generate)

    def patterns(self) -> list:
        return self.ops

    def run(self, pat):
        report = self.oracle(pat)
        cert = self.search("flows.find_inducing_certificate", find_inducing_certificate, pat)
        if self.tr.enabled:
            self.tr.count("rewrite.pushes", pauli_inversions(pat))
        nf = self.tr.call("rewrite.normalize_pauli_first", normalize_pauli_first, pat)
        nf_report = distance = None
        if report.ok:
            nf_report = self.oracle(nf)
            distance = choi_distance(
                self.tr.call("simulate.semantics", semantics, pat),
                self.tr.call("simulate.semantics", semantics, nf),
            )
        return report, cert, nf, nf_report, distance

    def verify(self, pat, result) -> bool:
        report, cert, nf, nf_report, distance = result
        where = f"pattern {pat}"
        if report.ok != (cert is not None):
            self.fail(where, f"verdict {report.ok} but inducing certificate found: {cert is not None}")
        if cert is not None and not is_induced_by(pat, cert):
            self.fail(where, "certificate does not induce the pattern")
        if not is_pauli_first(nf):
            self.fail(where, "normal form is not Pauli-first")
        if report.ok and not (nf_report.ok and distance <= TOL):
            self.fail(where, f"normal form changed the channel (distance {distance})")
        return True


# ---------------------------------------------------------------------------

_PAIR = (
    "Z_3^{s_2} M_2^Z Z_2^{s_1} M_1^{YZ,t} E_{1,2} E_{2,3} N_1 N_2 N_3",
    "Z_3^{s_2} M_2^Z Z_3^{s_1} Z_2^{s_1} M_1^{YZ,t} E_{1,2} E_{2,3} N_1 N_2 N_3",
)


class Cli(Workload):
    """One ``python -m mbqc.cli`` subprocess per op, cycling the subcommands.

    Exit codes: 0 when the property holds, 1 when it fails, 2 on bad input.
    An op whose exit code differs from the expected one counts as failed.
    """

    name = "cli"

    def setup(self) -> None:
        rng = random.Random(f"cli:{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)

        def write(name, doc) -> str:
            path = self.workdir / name
            path.write_text(documents.dump_json(doc), encoding="utf-8")
            return str(path)

        og, p = inputs.flow_graph(rng, 5)
        chain = sorted(p)
        cert = FlowCertificate.make("pauli", og, p, StrictPartialOrder.chain(chain))
        # The tampered certificate empties p of the first measured vertex: no
        # axis of X, Y or XY then holds there.  A reversed chain would not do:
        # it is still a flow of about one seeded graph in twenty.
        bad = FlowCertificate.make("pauli", og, {**p, chain[0]: 0}, StrictPartialOrder.chain(chain))
        self.ref = inputs.ref_of(og)
        for c, want in ((cert, None), (bad, "invalid")):
            err = refcheck.pauli_flow_violation(self.ref, *inputs.ref_cert(c)[:2])
            if (err is None) != (want is None):
                raise RuntimeError(f"reference checker disagrees with the construction: {err}")
        self.ref_p = inputs.ref_cert(cert)[0]
        self.chain = chain
        showcase, _ = self.generate("corpus.generate", corpus.extended_flow_example)
        self.showcase = inputs.ref_of(showcase)
        theta = Angle.of_real(rng.uniform(0.1, 2.0 * math.pi - 0.1))
        a, b = (parse_pattern(src).bind({"t": theta}) for src in _PAIR)
        self.normal_form = normalize_pauli_first(a)
        self.out_dim = 1 << a.outputs.bit_count()
        self.in_dim = 1 << a.inputs.bit_count()

        g = write("graph.json", documents.open_graph_to_json(og))
        good = write("cert.json", documents.certificate_to_json(cert))
        tampered = write("cert-bad.json", documents.certificate_to_json(bad))
        sg = write("showcase.json", documents.open_graph_to_json(showcase))
        pa = write("pattern-a.json", documents.pattern_to_json(a))
        pb = write("pattern-b.json", documents.pattern_to_json(b))
        order = ",".join(map(str, chain))
        # (subcommand, arguments, expected exit code, output check); the
        # graph of a find-flow output is its first argument.
        self.ops = [
            ("check-flow", [g, good, "--kind", "pauli"], 0, None),
            ("check-flow", [g, tampered, "--kind", "pauli"], 1, None),
            ("find-flow", [g, "--kind", "pauli"], 0, "pauli"),
            ("find-flow", [sg, "--kind", "epf"], 0, "epf"),
            ("check-determinism", [pa], 0, None),
            ("check-determinism", [pb], 1, None),
            ("push-pauli", [pb, "--emit-trace"], 0, "push"),
            ("semantics", [pa], 0, "choi"),
            ("induce", [g, good, "--total-order", order], 0, "induce"),
            ("corpus-verify", ["--criteria", "5"], 0, "criteria"),
            # Bad input must exit 2; cmd_corpus_verify lets int("x") raise, so
            # this op exits 1 and counts as failed until that is fixed.
            ("corpus-verify", ["--criteria", "x"], 2, None),
        ]
        self.probe_out = self.workdir / "probe.json"

    def _subprocess(self, cmd, args):
        if self.tr.enabled:
            argv = [sys.executable, str(Path(__file__).with_name("cli_probe.py")), str(self.probe_out)]
        else:
            argv = [sys.executable, "-m", "mbqc.cli"]
        start = time.perf_counter()
        proc = subprocess.run(argv + [cmd] + args, capture_output=True, text=True, timeout=120)
        if self.tr.enabled and self.probe_out.exists():
            probe = json.loads(self.probe_out.read_text(encoding="utf-8"))
            self.probe_out.unlink()
            self.tr.record("cli.interpreter", start, probe["start"])
            self.tr.record("cli.import", probe["start"], probe["start"] + probe["import"])
        return proc

    def run(self, op):
        cmd, args, _, kind = op
        proc = self.tr.call(f"cli.{cmd}", self._subprocess, cmd, args)
        parsed = None
        if proc.returncode == 0 and kind in ("pauli", "epf"):
            parsed = self.tr.call("documents.parse", _parse_cert, proc.stdout, args[0])
        elif proc.returncode == 0 and kind in ("push", "induce"):
            parsed = self.tr.call("documents.parse", _parse_pattern, proc.stdout)
        return proc, parsed

    def verify(self, op, result) -> bool:
        cmd, args, code, kind = op
        proc, parsed = result
        if proc.returncode != code:
            return False
        where = f"mbqc {cmd} {' '.join(args)}"
        if kind == "pauli":
            p, order, _ = inputs.ref_cert(parsed)
            err = refcheck.pauli_flow_violation(self.ref, p, order)
            if err is not None:
                self.fail(where, f"certificate rejected by the reference checker: {err}")
        elif kind == "epf":
            err = refcheck.extended_flow_violation(self.showcase, *inputs.ref_cert(parsed))
            if err is not None:
                self.fail(where, f"certificate rejected by the reference checker: {err}")
        elif kind == "push":
            if not is_pauli_first(parsed) or parsed != self.normal_form:
                self.fail(where, "output is not the shared Pauli-first normal form of the pair")
            if not any(line.startswith("u=") for line in proc.stderr.splitlines()):
                self.fail(where, "no rewrite trace on stderr")
        elif kind == "choi":
            err = _choi_violation(json.loads(proc.stdout), self.in_dim, self.out_dim)
            if err is not None:
                self.fail(where, err)
        elif kind == "induce":
            want = refcheck.induced_corrections(self.ref, self.ref_p, self.chain)
            got = {s.qubit: (frozenset(inputs._bits(s.x_corr)), frozenset(inputs._bits(s.z_corr))) for s in parsed.steps}
            if parsed.measurement_order() != self.chain or got != want:
                self.fail(where, "induced corrections differ from the certificate's")
        elif kind == "criteria":
            if "criterion  5: PASS" not in proc.stdout:
                self.fail(where, f"criterion 5 did not pass: {proc.stdout.strip()}")
        return True


def _parse_cert(text, graph_path):
    graph = documents.open_graph_from_json(documents.load_json(graph_path))
    return documents.certificate_from_json(json.loads(text), graph)


def _parse_pattern(text):
    return documents.pattern_from_json(json.loads(text))


def _choi_violation(doc, in_dim: int, out_dim: int) -> str | None:
    """Hermitian, positive semidefinite, and tracing out to the identity."""
    choi = np.array([[complex(re, im) for re, im in row] for row in doc["choi"]])
    if choi.shape != (in_dim * out_dim,) * 2:
        return f"Choi matrix has shape {choi.shape}"
    if not np.allclose(choi, choi.conj().T, atol=TOL):
        return "Choi matrix is not Hermitian"
    if np.linalg.eigvalsh(choi).min() < -TOL:
        return "Choi matrix is not positive semidefinite"
    # Row index out * in_dim + in: summing the out index leaves K^dagger K.
    reduced = np.einsum("oioj->ij", choi.reshape(out_dim, in_dim, out_dim, in_dim))
    if not np.allclose(reduced, np.eye(in_dim), atol=TOL):
        return "Choi matrix does not trace out to the identity over the outputs"
    return None


WORKLOADS = {w.name: w for w in (FlowSearch, DeterminismWide, DeterminismCorpus, Cli)}
