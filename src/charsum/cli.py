"""Batch command-line surface.

Subcommands: eval, count, verify, hasse, bench.  Exit codes: 0 ok,
1 verification mismatch, 2 usage or input error.  JSON is the machine
format; text rendering shows the inert / split case decomposition so the
numbers stay auditable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import random
import sys
import time
from typing import Optional, Sequence

from . import closedform, cm, families, hasse, oracle
from .algebra import FpPolynomial, centered_lift, is_prime, next_prime
from .exceptions import BadReductionError, CharsumError, ConstraintViolation
from .oracle import CaseRecord, VerificationReport, char_sum_coeffs, primes_in

log = logging.getLogger("charsum")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _family_params(args) -> dict:
    kind, _ = families.parse_family_id(args.family)
    if kind in ("f", "g"):
        return {"a": args.a}
    if kind == "legendre":
        if args.beta is None:
            raise ConstraintViolation("beta_missing", "--beta required for legendre")
        return {"beta": args.beta}
    if kind == "newton":
        if args.beta is None:
            raise ConstraintViolation("beta_missing", "--beta required for newton")
        return {"beta": args.beta, "k": args.k}
    if args.c is None or args.d is None:
        raise ConstraintViolation("cd_missing", "--c and --d required for edwards")
    return {"c": args.c, "d": args.d}


def _render_sum(args, sv, extra: Optional[dict] = None) -> str:
    payload = {
        "family": args.family,
        "p": args.p,
        "params": _family_params(args),
        "value": sv.value,
        "method": sv.method,
        "residue_only": sv.residue_only,
    }
    if sv.residue_only:
        payload["modulus"] = sv.modulus
    if sv.parts:
        payload["decomposition"] = dict(sv.parts)
    if extra:
        payload.update(extra)
    if args.format == "json":
        return json.dumps(payload, sort_keys=True)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(payload.keys())
        w.writerow(payload.values())
        return buf.getvalue().rstrip("\n")
    lines = [f"S = {sv.value}" + ("  (residue mod p only)" if sv.residue_only else "")]
    if sv.parts:
        decomposition = " + ".join(f"{k}={v}" for k, v in sv.parts)
        lines.append(f"  decomposition: {decomposition}")
    lines.append(f"  method: {sv.method}")
    if extra:
        for k, v in extra.items():
            lines.append(f"  {k}: {v}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    params = _family_params(args)
    _, sv = closedform.point_count(args.family, params, args.p, method=args.method)
    # small-p delegation is part of the closed contract; structural
    # fallbacks are not
    if args.method == "closed" and "fallback" in sv.method:
        print(f"error: no closed path ({sv.method})", file=sys.stderr)
        return EXIT_USAGE
    extra = {}
    kind, _ = families.parse_family_id(args.family)
    # S = -a_p, and H(beta) = 0 mod p iff a_p = 0: |a_p| <= 2 sqrt(p) < p for
    # p >= 5, and at p = 3 the one curve (beta = 2) has S = 0 and H(2) = 0
    if kind == "legendre" and sv.value == 0:
        extra["supersingular"] = True
    print(_render_sum(args, sv, extra))
    return EXIT_OK


def cmd_count(args) -> int:
    pc, sv = closedform.point_count(
        args.family, _family_params(args), args.p, method=args.method
    )
    extra = {"affine": pc.affine, "projective": pc.projective}
    print(_render_sum(args, sv, extra))
    return EXIT_OK


def cmd_hasse(args) -> int:
    ps = [args.p] if args.p else primes_in(5, args.pmax + 1)
    rows = []
    for p in ps:
        fc = hasse.factor_counts(p)
        rows.append(
            {
                "p": p,
                "N1": fc.N1,
                "N2": fc.N2,
                "h": fc.h,
                "linear_formula_holds": fc.N1 == hasse.expected_linear_count(p, fc.h),
                "degree_identity_holds": hasse.quadratic_count_identity(fc),
                "printed_quadratic_formula_holds": fc.N2 == hasse.printed_quadratic_count(p, fc.h),
                "squarefree": hasse.squarefree_check(p),
            }
        )
    if args.format == "csv":
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for r in rows:
            w.writerow(r)
    else:
        for r in rows:
            print(json.dumps(r, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _suite_cubic_cm(pmax: int, rng) -> list[VerificationReport]:
    reports = []
    for n in families.N_VALUES:
        rep = oracle.verify_range(
            family=f"f{n}",
            p_max=pmax,
            param_grid=[{"a": a} for a in (1, 2, 3)],
            evaluator=lambda prm, p, n=n: closedform.eval_cubic_cm(n, prm["a"], p),
            poly_builder=lambda prm, p, n=n: families.cubic_poly(n, prm["a"], p),
        )
        reports.append(rep)
    return reports + [_printed_selector_probe(pmax)]


def _printed_selector_probe(pmax: int) -> VerificationReport:
    """The printed selector (u|n) = (2|p) against the oracle sign of S(f_n; a = 1).

    A status probe: its mismatches are recorded, one erratum per family
    names the first p where the selector is indecisive or wrong, and
    `conventions` holds each family's status next to the rule it uses.
    """
    probe = VerificationReport(family="cubic_cm_printed_selector", p_max=pmax)
    selector = cm.RULES["kronecker_chi2"]
    for n in families.N_VALUES:
        first = None
        for p in primes_in(3, pmax + 1):
            try:
                poly = families.cubic_poly(n, 1, p)
            except BadReductionError:
                continue
            if cm.is_inert(n, p).inert:
                continue
            s = char_sum_coeffs(poly.coeffs, p)
            u = selector(n, p, cm.representations_4p(n, p))
            probe.add(
                CaseRecord(
                    p=p,
                    params=(("a", 1), ("n", n)),
                    closed=u,
                    oracle=s,
                    match=u == s,
                    u_chosen=u,
                    note="printed_selector_probe",
                )
            )
            if u != s and first is None:
                first = ("indecisive" if u is None else "wrong", p)
        status = {"rule": cm.SIGN_RULE[n], "printed_selector": "consistent"}
        if first is not None:
            status.update(printed_selector=first[0], first_p=first[1])
            probe.errata.append(
                f"f{n}: printed selector (u|n) = (2|p) is {first[0]} at p = {first[1]}; "
                f"sign rule {cm.SIGN_RULE[n]}"
            )
        probe.conventions[f"f{n}"] = status
    return probe


def _suite_derived(pmax: int, rng) -> list[VerificationReport]:
    reports = []
    for n in families.N_VALUES:
        rep = oracle.verify_range(
            family=f"g{n}",
            p_max=pmax,
            param_grid=[{"a": a} for a in (1, 2, 3)],
            evaluator=lambda prm, p, n=n: closedform.eval_derived_gn(n, prm["a"], p),
            poly_builder=lambda prm, p, n=n: families.derived_poly(n, prm["a"], p),
        )
        reports.append(rep)
    return reports


def _suite_square_transform(pmax: int, rng) -> list[VerificationReport]:
    rep = VerificationReport(family="square_transform", p_max=pmax)
    for p in primes_in(3, pmax + 1):
        for i in range(40):
            deg = rng.randrange(1, 5)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = FpPolynomial.make(p, coeffs)
            lhs = char_sum_coeffs(f.at_x_squared().coeffs, p)
            rhs = char_sum_coeffs(f.times_x().coeffs, p) + char_sum_coeffs(f.coeffs, p)
            rep.add(
                CaseRecord(
                    p=p, params=(("i", i),), closed=rhs, oracle=lhs, match=lhs == rhs
                )
            )
    return [rep]


def _suite_quartic(pmax: int, rng) -> list[VerificationReport]:
    rep = VerificationReport(family="quartic_reduction", p_max=pmax)
    perm_rep = VerificationReport(family="quartic_permutations", p_max=pmax)
    from itertools import permutations

    for p in primes_in(5, pmax + 1):
        for i in range(20):
            roots = rng.sample(range(p), 4) if p > 4 else [0, 1, 2, 3]
            f = FpPolynomial.from_roots(p, roots)
            s_oracle = char_sum_coeffs(f.coeffs, p)
            sv = closedform.quartic_reduce(f)
            rep.add(
                CaseRecord(
                    p=p,
                    params=(("i", i),),
                    closed=sv.value,
                    oracle=s_oracle,
                    match=sv.value == s_oracle,
                )
            )
            if p >= 17 and i < 3:
                values = set()
                for perm in permutations(roots):
                    alpha, beta = closedform.cross_ratio_params(perm, p)
                    lf = hasse.legendre_form_sum(beta, p)
                    from .algebra import legendre

                    values.add(-1 + legendre(alpha, p) * lf.value)
                perm_rep.add(
                    CaseRecord(
                        p=p,
                        params=(("i", i),),
                        closed=min(values),
                        oracle=s_oracle,
                        match=len(values) == 1 and values == {s_oracle},
                    )
                )
    return [rep, perm_rep]


def _suite_legendre_hasse(pmax: int, rng) -> list[VerificationReport]:
    rep = VerificationReport(family="legendre_hasse_sign", p_max=pmax)
    for p in primes_in(5, pmax + 1):
        betas = list(range(2, p - 1))
        if p >= 17:
            lifted = hasse.legendre_form_sum_batch(betas, p)
        for idx, b in enumerate(betas):
            s = char_sum_coeffs((0, b, (-(1 + b)) % p, 1), p)
            v = int(lifted[idx]) if p >= 17 else hasse.legendre_form_sum(b, p).value
            rep.add(CaseRecord(p=p, params=(("beta", b),), closed=v, oracle=s, match=v == s))
    return [rep]


def _suite_factor_counts(pmax: int, rng) -> list[VerificationReport]:
    rep = VerificationReport(family="hasse_factor_counts", p_max=pmax)
    for p in primes_in(7, pmax + 1):
        fc = hasse.factor_counts(p)
        ok = hasse.factor_count_formulas_hold(fc) and hasse.squarefree_check(p)
        printed_ok = fc.N2 == hasse.printed_quadratic_count(p, fc.h)
        rep.add(
            CaseRecord(
                p=p,
                params=(("N1", fc.N1), ("N2", fc.N2), ("h", fc.h)),
                closed=fc.N1,
                oracle=hasse.expected_linear_count(p, fc.h),
                match=ok,
                note="" if printed_ok else "printed_quadratic_formula_fails",
            )
        )
    if any("printed" in c.note for c in rep.cases):
        rep.errata.append(
            "printed three-class quadratic-factor formula is inconsistent with "
            "N1 + 2 N2 = deg H (first failure p = 13); linear-factor formula "
            "and the degree identity hold everywhere"
        )
    return [rep]


def _suite_jacobsthal(pmax: int, rng) -> list[VerificationReport]:
    reports = []
    for kind, closed in (("psi", closedform.psi_closed), ("phi", closedform.phi_closed)):
        rep = VerificationReport(family=f"jacobsthal_{kind}", p_max=pmax)
        for k in range(2, 7):
            for p in primes_in(5, pmax + 1):
                if (p - 1) % (2 * k):
                    continue
                for a in range(1, min(11, p)):
                    s = oracle.jacobsthal_direct(kind, k, a, p).value
                    sv = closed(k, a, p)
                    rep.add(
                        CaseRecord(
                            p=p,
                            params=(("k", k), ("a", a)),
                            closed=sv.value,
                            oracle=s,
                            match=sv.agrees_with(s),
                            note="residue_only" if sv.residue_only else "",
                        )
                    )
        reports.append(rep)
    # permutation-zero classes for phi
    rep = VerificationReport(family="jacobsthal_phi_zero", p_max=pmax)
    for k in (2, 4, 6):
        for p in primes_in(5, pmax + 1):
            if (p - 1) % k == 0 and ((p - 1) // k) % 2 == 1:
                s = oracle.jacobsthal_direct("phi", k, 1, p).value
                sv = closedform.phi_closed(k, 1, p)
                rep.add(
                    CaseRecord(
                        p=p,
                        params=(("k", k),),
                        closed=sv.value,
                        oracle=s,
                        match=sv.value == 0 and s == 0,
                    )
                )
    reports.append(rep)
    return reports


def _suite_power_sums(pmax: int, rng) -> list[VerificationReport]:
    rep = VerificationReport(family="power_2k", p_max=pmax)
    for k in range(2, 7):
        for p in primes_in(5, pmax + 1):
            if (p - 1) % (2 * k):
                continue
            for a in range(1, min(6, p)):
                coeffs = [a] + [0] * (2 * k - 1) + [1]
                s = char_sum_coeffs(coeffs, p)
                sv = closedform.eval_power_2k(k, a, p)
                rep.add(
                    CaseRecord(
                        p=p,
                        params=(("k", k), ("a", a)),
                        closed=sv.value,
                        oracle=s,
                        match=sv.agrees_with(s),
                        note="residue_only" if sv.residue_only else "",
                    )
                )
    return [rep]


def _suite_forms(pmax: int, rng) -> list[VerificationReport]:
    newton = VerificationReport(family="newton_form", p_max=pmax)
    edwards = VerificationReport(family="edwards_form", p_max=pmax)
    variant = VerificationReport(family="crossratio_statement_variant", p_max=pmax)
    from .algebra import inv_mod, legendre

    for p in primes_in(5, pmax + 1):
        for _ in range(8):
            beta = rng.randrange(2, p - 1) if p > 3 else 2
            k = rng.randrange(1, p)
            if beta % p in (0, 1, p - 1) or k % p == 0:
                continue
            prm = families.FormParams(kind="newton", k=k, beta=beta)
            poly = families.form_poly(prm, p)
            s = char_sum_coeffs(poly.coeffs, p)
            sv = closedform.eval_form(prm, p)
            newton.add(
                CaseRecord(
                    p=p,
                    params=(("beta", beta), ("k", k)),
                    closed=sv.value,
                    oracle=s,
                    match=sv.value == s,
                    note="fallback" if "fallback" in sv.method else "",
                )
            )
            if k % p == 1:
                alt = closedform.eval_newton_k1(beta, p)
                newton.add(
                    CaseRecord(
                        p=p,
                        params=(("beta", beta), ("k", 1), ("path", 2)),
                        closed=alt.value,
                        oracle=s,
                        match=alt.value == s,
                    )
                )
        for _ in range(8):
            c = rng.randrange(1, p)
            d = rng.randrange(1, p)
            try:
                prm = families.FormParams(kind="edwards", c=c, d=d)
                poly = families.form_poly(prm, p)
            except ConstraintViolation:
                continue
            s = char_sum_coeffs(poly.coeffs, p)
            sv = closedform.eval_form(prm, p)
            edwards.add(
                CaseRecord(
                    p=p,
                    params=(("c", c), ("d", d)),
                    closed=sv.value,
                    oracle=s,
                    match=sv.value == s,
                    note="fallback" if "fallback" in sv.method else "",
                )
            )
        # statement-variant probe: alpha' = (a1-a3)(a3-a2), beta' with a3 factor
        if p >= 17:
            roots = rng.sample(range(p), 4)
            f = FpPolynomial.from_roots(p, roots)
            s = char_sum_coeffs(f.coeffs, p)
            a = [(-r) % p for r in roots]
            alpha_v = (a[0] - a[2]) * (a[2] - a[1]) % p
            den = (a[0] - a[3]) * (a[1] - a[2]) % p
            if alpha_v and den:
                beta_v = a[2] * (a[1] - a[3]) % p * inv_mod(den, p) % p
                if beta_v not in (0, 1):
                    ap = centered_lift(hasse.hasse_eval(beta_v, p), p)
                    guess = -1 - legendre(alpha_v, p) * ap
                    variant.add(
                        CaseRecord(
                            p=p,
                            params=(("alpha", alpha_v), ("beta", beta_v)),
                            closed=guess,
                            oracle=s,
                            match=guess == s,
                            note="statement_variant_probe",
                        )
                    )
    if variant.mismatches:
        variant.errata.append(
            "statement-form parameters (with the a3 factor) do not reproduce the "
            "oracle; the proof-form cross ratio is the implemented one"
        )
    variant.conventions["statement_variant_agreement"] = (
        f"{len(variant.cases) - len(variant.mismatches)}/{len(variant.cases)}"
    )
    return [newton, edwards, variant]


def _suite_identities(pmax: int, rng) -> list[VerificationReport]:
    """Legendre-cubic parameter identities; records which variant of (i) holds."""
    from .algebra import inv_mod, legendre

    rep = VerificationReport(family="legendre_identities", p_max=pmax)
    plain_i = twisted_i = 0
    for p in primes_in(5, pmax + 1):
        for beta in range(2, p - 1):
            s_b = char_sum_coeffs((0, beta, (-(1 + beta)) % p, 1), p)
            binv = inv_mod(beta, p)
            if binv not in (0, 1):
                s_inv = char_sum_coeffs((0, binv, (-(1 + binv)) % p, 1), p)
                if s_b == s_inv:
                    plain_i += 1
                if s_b == legendre(beta, p) * s_inv:
                    twisted_i += 1
            one_m = (1 - beta) % p
            ok2 = True
            if one_m not in (0, 1):
                s_1m = char_sum_coeffs((0, one_m, (-(1 + one_m)) % p, 1), p)
                ok2 = s_b == legendre(-1, p) * s_1m
            b2 = beta * beta % p
            landen = (1 + beta) ** 2 % p * inv_mod(4 * beta, p) % p
            ok3 = True
            if b2 not in (0, 1) and landen not in (0, 1):
                s_b2 = char_sum_coeffs((0, b2, (-(1 + b2)) % p, 1), p)
                s_l = char_sum_coeffs((0, landen, (-(1 + landen)) % p, 1), p)
                ok3 = s_b2 == legendre(beta, p) * s_l
            rep.add(
                CaseRecord(
                    p=p,
                    params=(("beta", beta),),
                    closed=s_b,
                    oracle=s_b,
                    match=ok2 and ok3,
                )
            )
    rep.conventions["inversion_identity"] = (
        "holds_with_chi_beta_factor" if twisted_i >= plain_i else "holds_as_printed"
    )
    rep.conventions["counts"] = {"as_printed": plain_i, "with_factor": twisted_i}
    return [rep]


def _suite_weil(pmax: int, rng) -> list[VerificationReport]:
    audit = closedform.weil_audit(p_max=pmax)
    rep = VerificationReport(family="weil_audit", p_max=pmax)
    for fam, info in audit["families"].items():
        rep.add(
            CaseRecord(
                p=0,
                params=(("family", 0),),
                closed=None,
                oracle=0,
                match=True,
                note=f"{fam}: max |S|/sqrt(p) = {info['max_ratio']}",
            )
        )
    rep.conventions["two_sqrt_violations"] = len(audit["two_sqrt_violations"])
    rep.conventions["genus_bound_violations"] = len(audit["genus_bound_violations"])
    for v in audit["genus_bound_violations"]:
        rep.errata.append(f"genus bound violated: {v}")
    return [rep]


SUITES = {
    "cubic-cm": _suite_cubic_cm,
    "derived": _suite_derived,
    "square-transform": _suite_square_transform,
    "quartic-reduction": _suite_quartic,
    "legendre-hasse": _suite_legendre_hasse,
    "factor-counts": _suite_factor_counts,
    "jacobsthal": _suite_jacobsthal,
    "power-sums": _suite_power_sums,
    "forms": _suite_forms,
    "identities": _suite_identities,
    "weil": _suite_weil,
}


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    unexplained = 0
    all_reports = []
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; known: {', '.join(SUITES)} or all", file=sys.stderr)
            return EXIT_USAGE
        reports = SUITES[name](args.pmax, rng)
        for rep in reports:
            rep.finalize()
            bad = len(rep.unexplained)
            unexplained += bad
            fb = rep.fallback_count
            print(
                f"[{name}] {rep.family}: {len(rep.cases)} cases, "
                f"{bad} unexplained mismatches"
                + (f", {fb} oracle fallbacks" if fb else "")
            )
            for e in rep.errata[:5]:
                print(f"    erratum: {e}")
        all_reports.extend(reports)
    if args.out:
        payload = {r.family: r.as_dict() for r in all_reports}
        with open(args.out, "w", encoding="utf-8") as fh:
            if args.format == "csv":
                for r in all_reports:
                    fh.write(r.to_csv())
            else:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
        print(f"wrote report to {args.out}")
    return EXIT_MISMATCH if unexplained else EXIT_OK


def _bench_one(kind: str, n, p: int) -> tuple[float, int]:
    t0 = time.perf_counter()
    if kind == "f":
        sv = closedform.eval_cubic_cm(n, 1, p)
    else:
        sv = hasse.legendre_form_sum(2, p)
    return time.perf_counter() - t0, sv.value


def cmd_bench(args) -> int:
    """One CSV row per requested prime size; oracle extrapolated past its budget."""
    kind, n = families.parse_family_id(args.family)
    if kind not in ("f", "legendre"):
        print("bench supports f-families and legendre", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    try:
        bit_sizes = [int(b) for b in str(args.pbits).split(",")]
    except ValueError:
        print(f"bad --pbits {args.pbits!r}", file=sys.stderr)
        return EXIT_USAGE
    cap = 1 << 22
    w = csv.writer(sys.stdout)
    w.writerow(["p", "t_closed_s", "t_oracle_s", "speedup", "oracle_extrapolated"])
    for bits in bit_sizes:
        p = next_prime((1 << bits) + rng.randrange(1 << max(bits - 8, 4)))
        t_closed, value = min(_bench_one(kind, n, p) for _ in range(3))
        extrapolated = p >= cap
        p0 = p if not extrapolated else next_prime(1 << 20)
        poly = (
            families.cubic_poly(n, 1, p0)
            if kind == "f"
            else families.form_poly(families.FormParams(kind="legendre", beta=2), p0)
        )
        t0 = time.perf_counter()
        char_sum_coeffs(poly.coeffs, p0)
        t_oracle = (time.perf_counter() - t0) * (p / p0 if extrapolated else 1.0)
        speedup = t_oracle / t_closed if t_closed > 0 else float("inf")
        w.writerow([p, f"{t_closed:.6f}", f"{t_oracle:.6f}", f"{speedup:.1f}", extrapolated])
        log.info("bench %s at p=%d: S=%s", args.family, p, value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _load_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _parse_with_config(ap: argparse.ArgumentParser, argv: list, cfg: dict):
    """Parse argv with config values as flags; argparse types and checks them.

    A key that names no option of the subcommand is ignored, as is one whose
    flag is given on the command line.
    """
    args = ap.parse_args(argv)
    extra = []
    for k, raw in cfg.items():
        flag = f"--{k.replace('_', '-')}"
        if k in ("cmd", "fn") or not hasattr(args, k) or flag in argv:
            continue
        extra.append(f"{flag}={raw}")
    return ap.parse_args(argv + extra)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="charsum", description=__doc__)
    ap.add_argument("--config", help="key=value config file (flags take precedence)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_family_args(sp):
        sp.add_argument("--family", required=True, help="f1..f163, g1..g163, legendre, newton, edwards")
        sp.add_argument("--a", type=int, default=1)
        sp.add_argument("--beta", type=int)
        sp.add_argument("--k", type=int, default=1)
        sp.add_argument("--c", type=int)
        sp.add_argument("--d", type=int)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--method", choices=("auto", "closed", "oracle"), default="auto")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sp = sub.add_parser("eval", help="evaluate a character sum")
    add_family_args(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("count", help="point counts of the associated curve")
    add_family_args(sp)
    sp.set_defaults(fn=cmd_count)

    sp = sub.add_parser("verify", help="closed form vs oracle campaigns")
    sp.add_argument("--suite", default="all", help=f"one of {', '.join(SUITES)} or all")
    sp.add_argument("--pmax", type=int, default=300)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--out")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("hasse", help="factor counts and class numbers")
    sp.add_argument("--p", type=int)
    sp.add_argument("--pmax", type=int, default=100)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.set_defaults(fn=cmd_hasse)

    sp = sub.add_parser("bench", help="closed form vs oracle timings")
    sp.add_argument("--family", required=True)
    sp.add_argument("--pbits", default="24", help="bit size(s), e.g. 24 or 20,24,30")
    sp.add_argument("--seed", type=int, default=12345)
    sp.set_defaults(fn=cmd_bench)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=os.environ.get("CHARSUM_LOG", "WARNING").upper())
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # config file values become defaults; explicit flags win
    if "--config" in argv:
        cfg_path = argv[argv.index("--config") + 1]
        args = _parse_with_config(ap, argv, _load_config(cfg_path))
    else:
        args = ap.parse_args(argv)
    try:
        if args.cmd in ("eval", "count") and (
            not is_prime(args.p) or args.p < 3 or args.p % 2 == 0
        ):
            print(f"p = {args.p} is not an odd prime", file=sys.stderr)
            return EXIT_USAGE
        return args.fn(args)
    except (CharsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
