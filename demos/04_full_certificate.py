"""The whole pipeline: from clause density to a machine-readable certificate.

Runs the certification at the headline density 4.506 in float mode, then
in interval mode, where the same stages run with the ledger, every trace
sign and the rectangle rate outward-rounded, and finally replays both
emitted certificates from their JSON form, each in its own mode: the same
checker re-runs every stage on the stored trace, with neither the spiral nor
its Newton, and the replay names each field of the certificate it did not
reproduce.
"""

import json
import tempfile
from pathlib import Path

from typsat.pipeline import certify, replay

print("-- float pipeline " + "-" * 51)
cert = certify(4.506, 56, 1e-15, mode="float")
for s in cert.stages:
    print(f"   [{'ok' if s['ok'] else 'FAIL'}] {s['name']}: {s['detail'][:84]}")
print(f"   verdict: {cert.verdict}")
print(f"   certified per-variable expectation rate: {cert.rate:.9f}  (< 1)")
print(f"   so the expected count decays like rate^n, up to a 6 n^3 polynomial factor")

print()
print("-- interval certificate " + "-" * 45)
cert_iv = certify(4.506, 56, 1e-15, mode="interval")
rep = cert_iv.interval_report
print(f"   {rep['sign_checks']} outward-rounded sign checks, failures: {rep['sign_failures']}")
print(f"   rate enclosure: [{rep['rate_lower']:.12f}, {rep['rate_upper']:.12f}]")
print(f"   prefactor upper bound: {float(cert_iv.ledger['prefactor']['v']):.12f}")
print(f"   verdict: {cert_iv.verdict}")

print()
print("-- certificate replay " + "-" * 47)
with tempfile.TemporaryDirectory() as tmp:
    for c in (cert, cert_iv):
        path = Path(tmp) / "certificate.json"
        path.write_text(c.dumps())
        rerun, disagreements = replay(json.loads(path.read_text()))
        print(f"   {c.mode:8s} stored -> reloaded -> re-verified: trace ok = "
              f"{rerun.trace_verified}, rate = {rerun.rate:.12f}, verdict = {rerun.verdict}, "
              f"disagreements = {disagreements}")
