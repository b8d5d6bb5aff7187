"""Seeded job lists for the three workloads, and the checks on their reports.

A job is one ``gwadeform.cli.run(argv)`` call.  The program sees only the
argv and the corpus configs in ``corpus/``; every payload is generated
here, from the workload seed, before any timing starts.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = sorted((HERE / "corpus").glob("alg*.json"))
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

# Corpus indices (see corpus/): 0-5 quantum, 6-10 classical; 6 is the Weyl
# algebra.  Phi is squarefree everywhere except 8 (z^2) and 9 (z^3).
# h0: the Weyl algebra, whose non-predicted monomials escalate, plus quantum
# l = 1, 2 (both lambda = 2 and -1) and 3.  Together about 25 s at the seed.
H0_ALGEBRAS = (6, 1, 3, 5, 4)
# verify: quantum l = 1, 2 and classical l = 0, 2; all but the Weyl algebra
# run the dense solve in f1_noncoboundary_evidence.  About 21 s at the seed.
VERIFY_ALGEBRAS = (1, 5, 6, 10)
INTERACTIVE_ROUNDS = 8


@dataclass
class Job:
    label: str
    argv: list
    # (left, right) element JSON for mul and star, checked by the oracle.
    operands: tuple | None = None
    # Digest key: the label where the report does not depend on the seed.
    key: str = ""

    def __post_init__(self):
        self.key = self.key or self.label


def _argv(i: int, seed: int, *rest) -> list:
    return ["--config", str(CORPUS[i]), "--json", "--seed", str(seed), *rest]


# h0 and verify hold the CLI's own sweep seed at 0: the random triples of
# check-algebra and deform-verify change a job's cost by about 10 % from
# one sweep seed to another.  The workload seed orders the jobs, and every
# report can be checked against its recorded digest.
def h0_jobs(seed: int) -> list[Job]:
    order = list(H0_ALGEBRAS)
    random.Random(seed).shuffle(order)
    return [Job(f"h0 alg{i:02d}", _argv(i, 0, "h0")) for i in order]


def verify_jobs(seed: int) -> list[Job]:
    order = list(VERIFY_ALGEBRAS)
    random.Random(seed).shuffle(order)
    jobs = []
    for i in order:
        jobs.append(Job(f"check-algebra alg{i:02d}",
                        _argv(i, 0, "check-algebra")))
        jobs.append(Job(f"deform-verify alg{i:02d}",
                        _argv(i, 0, "--order", "4", "deform-verify")))
    return jobs


def interactive_jobs(seed: int) -> list[Job]:
    """Short requests over the whole corpus; payloads built with the library.

    Each round sends every algebra the same requests: mul, star at each
    order 2..8, cohomology f and diff at each degree 0..3, and, for
    squarefree phi, g, contract3 and split2.  Only the payloads and the
    order of the requests are random, so the mix is the same for every
    seed.  contract3 payloads are coboundaries and g/split2 payloads are
    cocycles, so that every request is expected to pass.
    """
    from gwadeform.cli import load_config
    from gwadeform.core import GwaElement, module_nu, module_plain
    from gwadeform.errors import MultipleRootError
    from gwadeform.percomplex import PerCochain, f_map, per_diff
    from gwadeform.scalars import bezout_for_phi

    rng = random.Random(seed)

    def element(params, window, nterms):
        w = params.l + 1
        terms = {}
        for _ in range(nterms):
            q = rng.randint(-(window // w), window // w)
            p = rng.randint(0, window - w * abs(q))
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
            terms[(p, q)] = terms.get((p, q), 0) + c
        return GwaElement(params, terms)

    def cochain(params, module, degree):
        n = {0: 1, 1: 3}.get(degree, 4)
        return PerCochain(params, module, degree,
                          tuple(element(params, 4, 2) for _ in range(n)))

    def js(obj):
        return json.dumps(obj.to_json(), separators=(",", ":"))

    requests = []
    for i, path in enumerate(CORPUS):
        params, _ = load_config(str(path))
        try:
            bezout_for_phi(params.phi)
            ops = ["g", "g", "contract3", "contract3", "split2", "split2"]
        except MultipleRootError:
            ops = []
        for r in range(INTERACTIVE_ROUNDS):
            mod = ("plain", "nu")[r % 2]
            module = (module_nu if mod == "nu" else module_plain)(params)
            for _ in range(6):
                u = js(element(params, 3 * params.l + 8, 4))
                v = js(element(params, 3 * params.l + 8, 4))
                requests.append(Job(f"mul alg{i:02d}",
                                    _argv(i, seed, "mul", u, v), (u, v)))
            for order in range(2, 9):
                u = js(element(params, params.l + 3, 2))
                v = js(element(params, params.l + 3, 2))
                requests.append(Job(f"star{order} alg{i:02d}",
                                    _argv(i, seed, "--order", str(order),
                                          "star", u, v), (u, v)))
            cohomology = [("f", js(element(params, 4, 3))) for _ in range(3)]
            cohomology += [("diff", js(cochain(params, module, d)))
                           for d in range(4)]
            for op in ops:
                if op == "contract3":
                    c = per_diff(cochain(params, module, 2))
                else:
                    c = (per_diff(cochain(params, module, 1))
                         + f_map(element(params, 4, 2), params, module))
                cohomology.append((op, js(c)))
            for op, payload in cohomology:
                requests.append(Job(f"cohomology {op} alg{i:02d}",
                                    _argv(i, seed, "cohomology", op, payload,
                                          "--module", mod)))
    rng.shuffle(requests)
    for k, job in enumerate(requests):
        job.key = f"seed{seed}/{k:04d}"
    return requests


GENERATORS = {"interactive": interactive_jobs, "h0": h0_jobs,
              "verify": verify_jobs}


def digest(report: dict) -> str:
    """SHA-256 of a report with its run-dependent ``timing_ms`` removed."""
    rest = {k: v for k, v in report.items() if k != "timing_ms"}
    text = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digests(workload: str) -> dict:
    """Job key -> report digest, recorded at the seed commit."""
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


# ---------------------------------------------------------------------------
# Independent product oracle for mul and star
# ---------------------------------------------------------------------------

def _pmul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ppow(a: list, n: int) -> list:
    out = [Fraction(1)]
    for _ in range(n):
        out = _pmul(out, a)
    return out


def _compose(h: list, s: list) -> list:
    out = [Fraction(0)] * ((len(h) - 1) * (len(s) - 1) + 1)
    for k, c in enumerate(h):
        for d, v in enumerate(_ppow(s, k)):
            out[d] += c * v
    return out


def oracle_product(cfg: dict, left: list, right: list) -> list:
    """u * v in normal form, written from the defining relations alone.

    x_q z = sigma^q(z) x_q moves the z-power of the right factor across;
    x^a y^b and y^a x^b then collapse through xy = phi(sigma(z)) and
    yx = phi(z), one pair at a time from the inside out.
    """
    lam, eta = Fraction(cfg["lambda"]), Fraction(cfg["eta"])
    phi = [Fraction(c) for c in cfg["phi"]]

    def sigma(j):  # sigma^j(z) = lam^j z + eta (lam^j - 1)/(lam - 1)
        if lam == 1:
            return [j * eta, Fraction(1)]
        lj = lam ** j
        return [eta * (lj - 1) / (lam - 1), lj]

    out: dict = {}
    for a in left:
        p, q, ca = a["p"], a["q"], Fraction(a["c"])
        for b in right:
            i, j, cb = b["p"], b["q"], Fraction(b["c"])
            poly = _ppow(sigma(q), i)
            if q > 0 > j:
                for k in range(1, min(q, -j) + 1):
                    poly = _pmul(poly, _compose(phi, sigma(q - k + 1)))
            elif q < 0 < j:
                for k in range(1, min(-q, j) + 1):
                    poly = _pmul(poly, _compose(phi, sigma(q + k)))
            for d, c in enumerate(poly):
                key = (p + d, q + j)
                out[key] = out.get(key, 0) + ca * cb * c
    terms = sorted(((pq, c) for pq, c in out.items() if c != 0),
                   key=lambda t: (t[0][1], t[0][0]))
    return [{"p": p, "q": q, "c": _rat_str(c)} for (p, q), c in terms]


def _rat_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def check_report(job: Job, code, out: str) -> tuple[str | None, str | None]:
    """(digest, error) for one job's captured stdout; error is None on success."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"
    if report.get("pass") is not True:
        return None, "report says pass: false"
    if job.operands is not None:
        cfg = json.loads(Path(job.argv[1]).read_text())
        want = oracle_product(cfg, *(json.loads(s) for s in job.operands))
        res = report["results"][0]
        got = res["product"] if "product" in res else res["series"][0]
        if got != want:
            return None, "product differs from the oracle"
    return digest(report), None
