"""The four benchmark workloads: seeded inputs and one pass each.

`make_inputs(seed)` draws every input of a workload from the seed and
returns plain data, so the same seed gives equal inputs. `build(inputs)`
turns them into program objects (algebras, forms, expected minors); both run
in set-up. `run_pass(built, workdir, checks, out)` is the timed pass: it
calls the program only through module attributes, so a tracer that patches
those attributes sees every call, and checks each output against a known
answer.

Why these four:
  * full-audit is what users run: `all --p 1` and `all --p 2`;
  * sl6-exact is the exact p = 3 frontier, dominated by Poly multiply,
    divide and determinant;
  * cartan-classes never touches polyring, so it is the bypass workload for
    a Poly-kernel change, and it exercises linalg and the bitmask wedge;
  * torus-scan is the only float layer (numeric).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction

from contactforge import cli, exterior, liealg, numeric, polyring, slcontact

import oracle

# full-audit
AUDIT_PS = (1, 2)
AUDIT_SAMPLES = 20
# sl6-exact (p = 3, 36 variables)
SL_P = 3
DJ_CHECKS = 1
BRACKET_PAIRS = 8
LIE_PAIRS = 3
DUALITY_ROWS = 2
DW_K_MAX = 5
INVARIANCE_SAMPLES = 20
# cartan-classes
CARTAN_ALGEBRAS = (("sl", 4), ("so", 6))
CARTAN_RANK = {("sl", 4): 3, ("so", 6): 3, ("sl", 5): 4}
DENSE_COVECTORS = 2
SPARSE_COVECTORS = 3
SURVEYS = (("sl", 5), ("so", 6))
SURVEY_SAMPLES = 20
# torus-scan
T5_POINTS = 10000
T3_POINTS = 10000
DIRECT_POINTS = 2000


def _dim(kind: str, n: int) -> int:
    return n * n - 1 if kind == "sl" else n * (n - 1) // 2


def _frame_indices(p: int) -> list[tuple[int, int]]:
    n = 2 * p
    return [(k, k) for k in range(1, n)] + [
        (k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l
    ]


def _cli(argv: list[str], path) -> tuple[int, bytes]:
    """Run one CLI command with a JSON report; returns (exit status, report bytes)."""
    path.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([*argv, "--json", str(path)])
    return code, path.read_bytes() if path.exists() else b""


class PassOutput:
    """Report bytes written during a pass, for the determinism and size metrics."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self.report_bytes = 0

    def add(self, data: bytes) -> None:
        self._digest.update(data)
        self.report_bytes += len(data)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# -- full-audit ----------------------------------------------------------------


def full_audit_inputs(seed: int) -> dict:
    return {"seed": seed, "ps": list(AUDIT_PS), "samples": AUDIT_SAMPLES}


def full_audit_build(inputs: dict) -> dict:
    return inputs


def full_audit_pass(built: dict, workdir, checks: oracle.Checks, out: PassOutput) -> None:
    seed = built["seed"]
    for p in built["ps"]:
        with checks.step(f"all --p {p}"):
            argv = ["all", "--p", str(p), "--samples", str(built["samples"]), "--seed", str(seed)]
            code, data = _cli(argv, workdir / f"audit_p{p}.json")
            out.add(data)
            oracle.check_audit_report(checks, p, seed, code, data)


# -- sl6-exact -----------------------------------------------------------------


def sl6_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    n = 2 * SL_P
    idx = _frame_indices(SL_P)
    pick = lambda: tuple(sorted(rng.sample(range(1, n + 1), 2)))
    return {
        "dj": [(pick(), pick()) for _ in range(DJ_CHECKS)],
        "brackets": [(rng.choice(idx), rng.choice(idx)) for _ in range(BRACKET_PAIRS)],
        "lie": [(rng.choice(idx), rng.choice(idx)) for _ in range(LIE_PAIRS)],
        "duality_rows": rng.sample(idx, DUALITY_ROWS),
        "k_max": DW_K_MAX,
        "invariance_seed": rng.randrange(2 ** 31),
        "invariance_samples": INVARIANCE_SAMPLES,
    }


def sl6_build(inputs: dict) -> dict:
    n = 2 * SL_P
    expected = {}
    for rows, cols in inputs["dj"]:
        keep_r = [r for r in range(1, n + 1) if r not in rows]
        keep_c = [c for c in range(1, n + 1) if c not in cols]
        expected[(rows, cols)] = oracle.leibniz_minor(keep_r, keep_c)
    return {**inputs, "dj_expected": expected}


def sl6_pass(built: dict, workdir, checks: oracle.Checks, out: PassOutput) -> None:
    p = SL_P
    n = 2 * p
    frame = d_omega = None
    with checks.step(f"build_frame({p})"):
        frame = slcontact.build_frame(p)
        d_omega = exterior.ext_d(frame.omega)
    if d_omega is None:
        return
    minors = frame.minors
    for (i, j), (k, l) in built["dj"]:
        with checks.step(f"desnanot-jacobi rows {i},{j} cols {k},{l}"):
            # A[i,k] A[j,l] - A[i,l] A[j,k] = det * (4x4 minor without rows i,j, cols k,l)
            lhs = minors[(i, k)] * minors[(j, l)] - minors[(i, l)] * minors[(j, k)]
            q, r = polyring.divmod_principal(lhs, frame.delta)
            checks.expect(f"desnanot-jacobi {i}{j}|{k}{l}: zero remainder", r.is_zero,
                          f"{len(r.terms)} remainder terms")
            checks.expect(f"desnanot-jacobi {i}{j}|{k}{l}: quotient is the 4x4 minor",
                          q.terms == built["dj_expected"][((i, j), (k, l))],
                          f"{len(q.terms)} quotient terms")

    with checks.step("reeb identities"):
        coeffs = {}
        for i in range(1, n + 1):
            sign = 1 if i % 2 == 1 else -1
            for j in range(1, p + 1):
                coeffs[(i, 2 * j - 1)] = minors[(i, 2 * j)] * sign
                coeffs[(i, 2 * j)] = minors[(i, 2 * j - 1)] * sign
        numerator = exterior.VField(n, coeffs)  # 4 det R
        kernel = exterior.interior_product(numerator, d_omega)
        checks.expect("i(4 det R) d omega = 2 d(det)", kernel == frame.d_delta * 2)
        pairing = exterior.interior_product(numerator, frame.omega).as_poly()
        q, r = polyring.divmod_principal(pairing, frame.delta)
        checks.expect(f"omega(4 det R) = {-2 * p} det", r.is_zero and q.terms == {(): -2 * p},
                      f"quotient {q!r}, {len(r.terms)} remainder terms")

    shift = frame.delta - 1
    with checks.step("[X,Y] = 0 slice"):
        bad = [(x, y) for x, y in built["brackets"]
               if not exterior.vf_bracket(frame.X[x], frame.Y[y]).is_zero]
        checks.expect(f"[X,Y] = 0 on {len(built['brackets'])} seeded pairs", not bad, bad)
    with checks.step("L_Y alpha slice"):
        bad = []
        for y, a in built["lie"]:
            form = exterior.lie_derivative(frame.Y[y], frame.alpha[a])
            if any(not polyring.reduce_mod_principal(c, shift).is_zero
                   for c in form.terms.values()):
                bad.append((y, a))
        checks.expect(f"L_Y alpha = 0 mod (det - 1) on {len(built['lie'])} seeded pairs",
                      not bad, bad)
    for a in built["duality_rows"]:
        with checks.step(f"alpha{a}(X) row"):
            wrong = []
            for x in frame.X:
                value = polyring.reduce_mod_principal(
                    exterior.interior_product(frame.X[x], frame.alpha[a]).as_poly(), shift)
                if value.terms != ({(): 1} if x == a else {}):
                    wrong.append(x)
            checks.expect(f"alpha{a}(X) is the Kronecker row", not wrong, wrong)

    with checks.step("(d omega)^k powers"):
        power = d_omega
        oracle.check_dw_power(checks, 1, power)
        for k in range(2, built["k_max"] + 1):
            power = exterior.wedge(power, d_omega)
            oracle.check_dw_power(checks, k, power)

    with checks.step(f"invariance --p {p}"):
        argv = ["invariance", "--p", str(p), "--samples", str(built["invariance_samples"]),
                "--seed", str(built["invariance_seed"])]
        code, data = _cli(argv, workdir / "invariance.json")
        out.add(data)
        oracle.check_suite_report(checks, f"invariance --p {p}", code, data)
    with checks.step(f"h-algebra --p {p}"):
        code, data = _cli(["h-algebra", "--p", str(p)], workdir / "h_algebra.json")
        out.add(data)
        oracle.check_h_algebra_report(checks, p, code, data)


# -- cartan-classes ------------------------------------------------------------


def _dense(rng: random.Random, dim: int) -> list[int]:
    while True:
        coords = [rng.randint(-9, 9) for _ in range(dim)]
        if any(coords):
            return coords


def _sparse(rng: random.Random, dim: int) -> list[int]:
    support = set(rng.sample(range(dim), rng.randint(1, 4)))
    return [rng.choice((-1, 1)) * rng.randint(1, 9) if i in support else 0 for i in range(dim)]


def cartan_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    covectors = {}
    cli_forms = {}
    for kind, n in CARTAN_ALGEBRAS:
        dim = _dim(kind, n)
        covectors[f"{kind}{n}"] = (
            [_dense(rng, dim) for _ in range(DENSE_COVECTORS)]
            + [_sparse(rng, dim) for _ in range(SPARSE_COVECTORS)]
        )
        cli_forms[f"{kind}{n}"] = _dense(rng, dim)
    return {
        "covectors": covectors,
        "cli_forms": cli_forms,
        "survey_seeds": [rng.randrange(2 ** 31) for _ in SURVEYS],
    }


def cartan_build(inputs: dict) -> dict:
    algebras = {f"{k}{n}": liealg.build_algebra(k, n) for k, n in CARTAN_ALGEBRAS}
    covectors = {
        key: [tuple(Fraction(c) for c in coords) for coords in vecs]
        for key, vecs in inputs["covectors"].items()
    }
    return {**inputs, "algebras": algebras, "covector_fractions": covectors}


def cartan_pass(built: dict, workdir, checks: oracle.Checks, out: PassOutput) -> None:
    for kind, n in CARTAN_ALGEBRAS:
        key = f"{kind}{n}"
        g = built["algebras"][key]
        bound = g.dim - CARTAN_RANK[(kind, n)] + 1
        for t, alpha in enumerate(built["covector_fractions"][key]):
            with checks.step(f"{key} covector {t}"):
                by_rank = liealg.cartan_class(g, alpha)
                by_wedge = liealg.cartan_class_wedge(g, alpha)
                checks.expect(f"{key} covector {t}: routes agree", by_rank == by_wedge,
                              f"{by_rank} vs {by_wedge}")
                checks.expect(f"{key} covector {t}: class at most {bound}",
                              0 < by_rank <= bound, by_rank)

    forms = [(kind, n, built["cli_forms"][f"{kind}{n}"], None) for kind, n in CARTAN_ALGEBRAS]
    dim4 = _dim("sl", 4)
    forms += [("sl", 4, list(head) + [0] * (dim4 - len(head)), cls)
              for head, cls in oracle.AUDITED_SL4_CLASSES.items()]
    for t, (kind, n, coords, expected) in enumerate(forms):
        label = f"cartan-class {kind}({n}) form {t}"
        with checks.step(label):
            argv = ["cartan-class", "--algebra", kind, "--n", str(n),
                    "--form=" + ",".join(str(c) for c in coords)]
            code, data = _cli(argv, workdir / f"class_{t}.json")
            out.add(data)
            bound = _dim(kind, n) - CARTAN_RANK[(kind, n)] + 1
            oracle.check_class_report(checks, label, code, data, bound, expected)

    for (kind, n), seed in zip(SURVEYS, built["survey_seeds"]):
        label = f"class-survey {kind}({n})"
        with checks.step(label):
            rank = CARTAN_RANK[(kind, n)]
            argv = ["class-survey", "--algebra", kind, "--n", str(n), "--rank", str(rank),
                    "--samples", str(SURVEY_SAMPLES), "--seed", str(seed)]
            code, data = _cli(argv, workdir / f"survey_{kind}{n}.json")
            out.add(data)
            oracle.check_survey_report(checks, label, code, data, _dim(kind, n), rank)


# -- torus-scan ----------------------------------------------------------------


def torus_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "t5_seed": rng.randrange(2 ** 31),
        "t3_seed": rng.randrange(2 ** 31),
        "n1": rng.randint(1, 4),
        "points": [tuple(rng.random() * 2 * math.pi for _ in range(5))
                   for _ in range(DIRECT_POINTS)],
    }


def torus_build(inputs: dict) -> dict:
    return {**inputs, "t5": numeric.t5_lutz_form()}


def torus_pass(built: dict, workdir, checks: oracle.Checks, out: PassOutput) -> None:
    scans = [
        ("t5-lutz", 5, ["--form", "t5-lutz", "--points", str(T5_POINTS),
                        "--seed", str(built["t5_seed"])]),
        (f"t3 --n1 {built['n1']}", 3, ["--form", "t3", "--n1", str(built["n1"]),
                                        "--points", str(T3_POINTS),
                                        "--seed", str(built["t3_seed"])]),
    ]
    for t, (name, dim, args) in enumerate(scans):
        label = f"scan {name}"
        with checks.step(label):
            code, data = _cli(["scan", *args], workdir / f"scan_{t}.json")
            out.add(data)
            oracle.check_scan_report(checks, label, code, data, dim)
    with checks.step("contact_scan t5-lutz on seeded points"):
        result = numeric.contact_scan(built["t5"], built["points"])
        checks.expect("t5-lutz seeded points: class constant and 5",
                      result.min_class == result.max_class == 5,
                      f"{result.min_class}..{result.max_class}")


WORKLOADS = {
    "full-audit": (full_audit_inputs, full_audit_build, full_audit_pass),
    "sl6-exact": (sl6_inputs, sl6_build, sl6_pass),
    "cartan-classes": (cartan_inputs, cartan_build, cartan_pass),
    "torus-scan": (torus_inputs, torus_build, torus_pass),
}


def sizes(value):
    """Input sizes for the run record: list lengths and scalar settings."""
    if isinstance(value, dict):
        return {key: sizes(v) for key, v in value.items()}
    return len(value) if isinstance(value, list) else value


def _calls(layer: str, *names: str) -> list[str]:
    return [f"{layer}.{name}.calls" for name in names]


_CLI_REPORTS = [*_calls("cli", "main"), *_calls("report", "as_dict"), "report.bytes"]

# Per-layer metrics each workload must reach; a zero fails a traced run.
EXPECTED_NONZERO = {
    "full-audit": [
        *_calls("polyring", "mul", "divmod", "determinant", "add", "diff", "evaluate"),
        "polyring.mul.term_pairs", "polyring.divmod.steps", "polyring.divmod.pairs",
        *_calls("exterior", "wedge", "ext_d", "interior_product", "lie_derivative",
                "vf_bracket", "covector_transport"),
        "exterior.wedge.term_pairs",
        *_calls("linalg", "rref", "mat_mul"),
        *_calls("numeric", "pointwise_class", "contact_scan"),
        *_calls("slcontact", "build_frame"),
        *[f"slcontact.{f}.self_s" for f in ("verify_contact_identity", "reeb_field",
                                            "structural_checks", "invariance_loci",
                                            "h_algebra", "u_decomposition")],
        "orthogroup.so3_contact_check.self_s",
        *_CLI_REPORTS,
    ],
    "sl6-exact": [
        *_calls("polyring", "mul", "divmod", "determinant", "add", "diff"),
        "polyring.mul.term_pairs", "polyring.mul.out_terms_max",
        "polyring.divmod.steps", "polyring.divmod.pairs",
        *_calls("exterior", "wedge", "ext_d", "interior_product", "lie_derivative",
                "vf_bracket"),
        "exterior.wedge.term_pairs", "exterior.wedge.out_terms_max",
        *_calls("linalg", "rref", "mat_mul"),
        *_calls("slcontact", "build_frame"),
        "slcontact.invariance_loci.self_s", "slcontact.h_algebra.self_s",
        *_CLI_REPORTS,
    ],
    "cartan-classes": [
        *_calls("linalg", "rank", "mat_mul"), "linalg.rank.entries",
        *_calls("liealg", "cartan_class", "cartan_class_wedge", "class_survey", "build"),
        *_CLI_REPORTS,
    ],
    "torus-scan": [
        *_calls("numeric", "pointwise_class", "contact_scan"),
        *_CLI_REPORTS,
    ],
}

