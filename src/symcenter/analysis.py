"""One-stop analysis of an algebra: dimensions, flags and ideal verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra
from .errors import Degenerate, NotSymmetricForm
from .substructures import (
    is_basic,
    is_local,
    j_of_center,
    property_verdicts,
    radical,
    reynolds,
    soc_of_center,
    socle,
)
from .symmetric import symmetric_gram

BASE_FIELD_NOTE = (
    "verdicts are exact linear-algebra statements over the stated base field; "
    "no claim is made over an algebraic closure"
)

SCHEMA_VERSION = 1


@dataclass
class AnalysisReport:
    """Everything cmd_analyze prints, in a machine-renderable form."""

    name: str
    field_desc: str
    dim: int
    dims: dict
    loewy_layers: tuple
    commutative: bool
    local: bool
    basic: bool
    symmetric: bool
    symmetric_note: str
    radical_strategy: str
    radical_evidence: str
    verdicts: dict
    subspaces: dict = field(default_factory=dict)

    def to_machine(self) -> dict:
        # the radical's strategy and evidence are in the text report only
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "analysis",
            "name": self.name,
            "field": self.field_desc,
            "dim": self.dim,
            "dims": dict(self.dims),
            "loewy_layers": list(self.loewy_layers),
            "loewy_ell": len(self.loewy_layers),
            "flags": {
                "commutative": self.commutative,
                "local": self.local,
                "basic": self.basic,
                "symmetric": self.symmetric,
            },
            "verdicts": {
                k: {"holds": v["holds"], "witness": v["witness"]}
                for k, v in self.verdicts.items()
            },
            "notes": [BASE_FIELD_NOTE],
        }

    def to_text(self) -> str:
        lines = [
            f"algebra   {self.name}",
            f"field     {self.field_desc}",
            f"dim A     {self.dim}",
        ]
        order = ["Z", "K", "J", "soc", "JZ", "socZ", "R"]
        shown = {
            "Z": "Z(A)", "K": "K(A)", "J": "J(A)", "soc": "soc(A)",
            "JZ": "J(Z(A))", "socZ": "soc(Z(A))", "R": "R(A)",
        }
        for key in order:
            line = f"dim {shown[key]:<9s} {self.dims[key]}"
            if key in self.subspaces:
                line += f"   {self.subspaces[key]}"
            lines.append(line)
        lines.append(
            "loewy     layers " + ",".join(str(x) for x in self.loewy_layers)
            + f"  (J^{len(self.loewy_layers)} = 0)"
        )
        lines.append(
            "flags     "
            + f"commutative={'yes' if self.commutative else 'no'} "
            + f"local={'yes' if self.local else 'no'} "
            + f"basic={'yes' if self.basic else 'no'} "
            + f"symmetric={'yes' if self.symmetric else 'no'}"
            + (f" ({self.symmetric_note})" if self.symmetric_note else "")
        )
        lines.append(f"radical   {self.radical_strategy}: {self.radical_evidence}")
        for prop, label in (("p1", "J(Z(A))"), ("p2", "soc(Z(A))"), ("p3", "R(A)")):
            v = self.verdicts[prop]
            if v["holds"]:
                lines.append(f"({prop})      {label} is an ideal of A")
            else:
                lines.append(
                    f"({prop})      {label} is NOT an ideal of A; witness: {v['witness']}"
                )
        lines.append(f"note      {BASE_FIELD_NOTE}")
        return "\n".join(lines) + "\n"


def analyze(algebra: Algebra) -> AnalysisReport:
    """Full report.  J(A) comes from the radical rule, so every valid
    algebra gets one."""
    cert = radical(algebra)
    z = algebra.center()
    k = algebra.commutator_space()
    soc = socle(algebra)
    jz = j_of_center(algebra)
    socz = soc_of_center(algebra)
    r = reynolds(algebra)
    loewy = algebra.loewy_series(cert.radical)
    verdicts = property_verdicts(algebra)
    try:
        sym = symmetric_gram(algebra) is not None
        note = "verified symmetrizing form" if sym else "no form attached"
    except (NotSymmetricForm, Degenerate) as exc:
        sym = False
        note = f"attached form rejected: {exc}"
    vd = {}
    for prop, verdict in verdicts.as_dict().items():
        vd[prop] = {
            "holds": verdict.holds,
            "witness": None if verdict.witness is None
            else verdict.witness.describe(algebra),
        }
    subspaces = {}
    for key, sub in (("Z", z), ("K", k), ("soc", soc), ("JZ", jz),
                     ("socZ", socz), ("R", r)):
        if sub.dim <= 12:
            subspaces[key] = algebra.subspace_str(sub)
    return AnalysisReport(
        name=algebra.name or "algebra",
        field_desc=repr(algebra.field),
        dim=algebra.dim,
        dims={
            "Z": z.dim,
            "K": k.dim,
            "J": cert.radical.dim,
            "soc": soc.dim,
            "JZ": jz.dim,
            "socZ": socz.dim,
            "R": r.dim,
        },
        loewy_layers=loewy,
        commutative=algebra.is_commutative(),
        local=is_local(algebra),
        basic=is_basic(algebra),
        symmetric=sym,
        symmetric_note=note,
        radical_strategy=cert.strategy,
        radical_evidence=cert.evidence,
        verdicts=vd,
        subspaces=subspaces,
    )
