"""Guarantee records: the one place where a certificate is built, compared
and enforced.

A construction certifies each hypothesis it promises with a claim record

    {"id": name, "claimed": bound, "measured": value, "pass": bool}

plus a "witness" key when it has one. Float bounds are compared with the
claim tolerance CLAIM_TOL and stated as "<= b" or ">= b"; count bounds are
exact and stated as the bare number. `certify` enforces a list of claims:
the first failing claim, in list order, raises ContractViolationError with
the record as its witness. The checks of the support calculus carry no
bound: their records are {"id": name, "pass": bool} with an optional
"witness".
"""

from __future__ import annotations

from .errors import ContractViolationError

CLAIM_TOL = 1e-9


def claim(name: str, claimed, measured, passed: bool, witness=None) -> dict:
    out = {"id": name, "claimed": claimed, "measured": measured, "pass": bool(passed)}
    if witness is not None:
        out["witness"] = witness
    return out


def holds(name: str, ok: bool, witness=None) -> dict:
    """A property claimed True and measured ok."""
    return claim(name, True, ok, ok, witness)


def at_most(name: str, measured, bound) -> dict:
    return claim(name, f"<= {bound}", measured, measured <= bound + CLAIM_TOL)


def at_least(name: str, measured, bound) -> dict:
    return claim(name, f">= {bound}", measured, measured >= bound - CLAIM_TOL)


def count_at_most(name: str, count: int, bound: int) -> dict:
    return claim(name, bound, count, count <= bound)


def check(name: str, ok: bool, witness=None) -> dict:
    """A support-calculus check: a pass flag and a witness on failure."""
    out = {"id": name, "pass": bool(ok)}
    if witness is not None:
        out["witness"] = witness
    return out


def certify(claims: list[dict]) -> list[dict]:
    """The claims, once every one passes."""
    for c in claims:
        if not c["pass"]:
            raise ContractViolationError(f"guarantee {c['id']} failed", witness=c)
    return claims
