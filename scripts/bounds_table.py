#!/usr/bin/env python3
"""Print the degree-bound table next to the certified uniruledness degree
of the non-properness set, for every corpus map."""

from nonproper.corpus import CORPUS
from nonproper.curves import certify
from nonproper.errors import PreconditionError
from nonproper.properness import sf_compute, theorem_bound


def main():
    print(f"{'map':20s} {'deg f':>5s} {'cn':>4s} {'wn':>4s} {'multc':>6s} {'certified':>10s}")
    for entry in CORPUS:
        if entry.kind != "map":
            continue
        prob = entry.load()
        f = prob.polymap()
        vals = {}
        for mode in ("cn", "wn", "multc"):
            try:
                vals[mode] = str(theorem_bound(f, mode, d1=prob.d1))
            except PreconditionError:
                vals[mode] = "-"
        cert = certify(sf_compute(f).components[0], (), prob.degree, prob.samples,
                       sharpness=prob.sharpness)
        sharp = all(cert.minimality.values()) if cert.minimality else None
        certified = f"{prob.degree}{'=' if sharp else ''}" if cert.status == "verified" else "?"
        print(f"{entry.name:20s} {f.degree:>5d} {vals['cn']:>4s} {vals['wn']:>4s} "
              f"{vals['multc']:>6s} {certified:>10s}")
    print("\n('=' marks a certified no-smaller-curve proof at the sampled points)")


if __name__ == "__main__":
    main()
