"""Built-in example registry: input files plus frozen expected values.

``EXPECTATIONS`` maps fixture name -> {flattened report key: expected value}.
The stored values are the exact outputs of this engine, so ``example`` mode
doubles as a regression gate; drift exits nonzero.
"""

from __future__ import annotations

import os

from .engine import run_check, run_reduce
from .parser import parse

__all__ = ["names", "input_text", "run_example", "EXPECTATIONS"]

_COMMANDS = {
    "nonintsu3": "check",
    "nonintG2": "reduce",
    "nonintG2nonclosedLee": "reduce",
    "nonintSpin7OneA": "reduce",
    "nonintSpin7Two": "reduce",
}


def names():
    return sorted(_COMMANDS)


def input_text(name: str) -> str:
    if name not in _COMMANDS:
        raise KeyError(f"unknown example {name!r}")
    # a plain open (universal newlines, as Path.read_text) loads no
    # importlib.resources, pathlib or zipfile
    with open(os.path.join(os.path.dirname(__file__), "data", f"{name}.gs"), encoding="utf-8") as f:
        return f.read()


def _flatten(value, prefix="", out=None):
    if out is None:
        out = {}
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list):
        out[prefix] = " ".join(str(x) for x in value)
    else:
        out[prefix] = value
    return out


def run_example(name: str):
    doc = parse(input_text(name))
    command = _COMMANDS[name]
    rep = run_check(doc) if command == "check" else run_reduce(doc)
    flat = _flatten(rep.data)
    failures = []
    for key, expected in EXPECTATIONS.get(name, {}).items():
        got = flat.get(key, "<missing>")
        if got != expected:
            failures.append(f"{name}: {key}: expected {expected!r}, got {got!r}")
    return rep, failures


EXPECTATIONS: dict[str, dict] = {'nonintG2': {'kind': 'g2',
              'torsion.tau0': '6/7',
              'torsion.tau1': '1/4*e7',
              'torsion.tau2': '0',
              'lee_form': 'e7',
              'strong_torsion': True,
              'torsion_oracle_agree': True,
              'canonical_vector': 'e7',
              'grs_residual_zero': True,
              'weighted_scalar': '11/6',
              'raw_reduction.omega': 'e1^e4 + e2^e5 - e3^e6',
              'raw_reduction.omega_plus': 'e1^e2^e3 - e3^e4^e5 - e2^e4^e6 + e1^e5^e6',
              'raw_reduction.flux': '0',
              'reduction.omega': 'f1^f4 + f2^f5 - f3^f6',
              'reduction.omega_plus': 'f1^f2^f3 - f3^f4^f5 - f2^f4^f6 + f1^f5^f6',
              'reduction.torsion.sigma0': '1/2',
              'reduction.torsion.pi0': '1/2',
              'reduction.torsion.nu1': '0',
              'reduction.torsion.pi1': '0',
              'reduction.torsion.sigma2': '0',
              'reduction.torsion.pi2': '0',
              'reduction.torsion.nu3': '3/4*f1^f2^f3 + 1/4*f2^f3^f4 - 1/4*f1^f3^f5 + 1/4*f3^f4^f5 '
                                       '- 1/4*f1^f2^f6 + 1/4*f2^f4^f6 - 1/4*f1^f5^f6 - '
                                       '3/4*f4^f5^f6',
              'reduction.anomaly_zero': True,
              'verifier_ok': True,
              'reduction.splitting.dH_hat = 0': True,
              'reduction.splitting.d mu = 0': True,
              'reduction.splitting.D mu = 0': True},
 'nonintG2nonclosedLee': {'kind': 'g2',
                          'torsion.tau0': '0',
                          'lee_form': '-e3 + e4',
                          'strong_torsion': True,
                          'torsion_oracle_agree': True,
                          'canonical_vector': '-e3 + e4',
                          'grs_residual_zero': True,
                          'raw_reduction.omega': 'e1^e5 + e2^e5 + e1^e6 - e2^e6 - e3^e7 - e4^e7',
                          'raw_reduction.omega_plus': '-e2^e3^e5 - e2^e4^e5 - e1^e3^e6 - e1^e4^e6 '
                                                      '+ e1^e2^e7 + e5^e6^e7',
                          'raw_reduction.flux': '-e1^e2 + e5^e6',
                          'reduction.torsion.sigma0': '1/2',
                          'reduction.torsion.pi0': '0',
                          'reduction.anomaly_zero': True,
                          'verifier_ok': True,
                          'reduction.splitting.dH_hat = 0': False,
                          'reduction.splitting.d mu = 0': False,
                          'reduction.splitting.D mu = 0': False},
 'nonintSpin7OneA': {'kind': 'spin7',
                     'lee_form': '-6/7*e3 + 6/7*e4',
                     'strong_torsion': True,
                     'torsion_oracle_agree': True,
                     'dilatino_residual': '0',
                     'canonical_vector': '-e3 + e4',
                     'grs_residual_zero': True,
                     'raw_reduction.phi': '6/7*e1^e2^e3 + 6/7*e1^e2^e4 + 6/7*e0^e1^e5 + '
                                          '6/7*e0^e2^e5 + 6/7*e0^e1^e6 - 6/7*e0^e2^e6 + '
                                          '6/7*e3^e5^e6 + 6/7*e4^e5^e6 - 6/7*e0^e3^e7 - '
                                          '6/7*e0^e4^e7 + 6/7*e1^e5^e7 - 6/7*e2^e5^e7 - '
                                          '6/7*e1^e6^e7 - 6/7*e2^e6^e7',
                     'raw_reduction.flux': '-6/7*e1^e2 + 6/7*e5^e6',
                     'reduction.torsion.tau0': '-6/7',
                     'reduction.torsion.lee': '0',
                     'reduction.anomaly_zero': True,
                     'verifier_ok': True,
                     'reduction.splitting.dH_hat = 0': False,
                     'reduction.splitting.d mu = 0': False,
                     'reduction.splitting.D mu = 0': False},
 'nonintSpin7Two': {'kind': 'spin7',
                    'lee_form': '-3/7*e1 + (3/7+3/7*sqrt3)*e2 - 3/7*e3 - 6/7*e4 + '
                                '(3/7-3/7*sqrt3)*e5 - 3/7*e6 + 3/7*e7',
                    'strong_torsion': True,
                    'torsion_oracle_agree': True,
                    'dilatino_residual': '0',
                    'grs_residual_zero': True,
                    'raw_reduction.phi': '3/7*e0^e1^e2 + (3/7-3/7*sqrt3)*e0^e1^e3 + 3/7*e0^e2^e3 - '
                                         '6/7*e1^e2^e3 + 3/7*e0^e1^e4 + (-3/7+3/7*sqrt3)*e0^e2^e4 '
                                         '+ 3/7*e1^e2^e4 + 3/7*e0^e3^e4 + (3/7+3/7*sqrt3)*e1^e3^e4 '
                                         '+ 3/7*e2^e3^e4 + 3/7*e0^e1^e5 - 6/7*e0^e2^e5 - '
                                         '3/7*e1^e2^e5 - 3/7*e0^e3^e5 + 3/7*e2^e3^e5 + '
                                         '(-3/7-3/7*sqrt3)*e0^e4^e5 + 3/7*e1^e4^e5 - 3/7*e3^e4^e5 '
                                         '- 6/7*e0^e1^e6 - 3/7*e0^e2^e6 + '
                                         '(-3/7+3/7*sqrt3)*e1^e2^e6 + (-3/7-3/7*sqrt3)*e0^e3^e6 + '
                                         '3/7*e1^e3^e6 + 3/7*e0^e4^e6 - 3/7*e2^e4^e6 + '
                                         '(-3/7+3/7*sqrt3)*e3^e4^e6 + 3/7*e0^e5^e6 + '
                                         '(3/7+3/7*sqrt3)*e1^e5^e6 + 3/7*e2^e5^e6 - 6/7*e3^e5^e6 + '
                                         '3/7*e4^e5^e6 + (-3/7-3/7*sqrt3)*e0^e1^e7 - 3/7*e0^e2^e7 '
                                         '+ 6/7*e0^e3^e7 + 3/7*e1^e3^e7 + '
                                         '(-3/7+3/7*sqrt3)*e2^e3^e7 - 3/7*e0^e4^e7 + '
                                         '(-3/7+3/7*sqrt3)*e1^e4^e7 - 3/7*e2^e4^e7 + 3/7*e0^e5^e7 '
                                         '- 6/7*e1^e5^e7 - 3/7*e2^e5^e7 + '
                                         '(-3/7-3/7*sqrt3)*e3^e5^e7 + 3/7*e4^e5^e7 + '
                                         '(3/7-3/7*sqrt3)*e0^e6^e7 - 3/7*e1^e6^e7 + 6/7*e2^e6^e7 + '
                                         '3/7*e3^e6^e7 + (3/7+3/7*sqrt3)*e4^e6^e7',
                    'raw_reduction.flux': '3/7*e1^e2 + (3/7+3/7*sqrt3)*e1^e3 + 3/7*e2^e3 + '
                                          '(9/14-3/14*sqrt3)*e0^e4 - 3/14*e1^e4 + 3/14*e2^e4 + '
                                          '(-3/14+3/14*sqrt3)*e3^e4 - 3/7*sqrt3*e0^e5 - 3/14*e1^e5 '
                                          '- 3/14*e2^e5 - 3/7*e3^e5 + 3/14*e4^e5 - '
                                          '3/14*sqrt3*e0^e6 + (-3/14+3/14*sqrt3)*e1^e6 - 3/7*e2^e6 '
                                          '+ 3/14*e3^e6 + (-3/14-3/14*sqrt3)*e4^e6 - 3/14*e5^e6 - '
                                          '3/14*sqrt3*e0^e7 - 3/7*e1^e7 + (3/14-3/14*sqrt3)*e2^e7 '
                                          '+ 3/14*e3^e7 + 3/14*e4^e7 + (-3/14-3/14*sqrt3)*e5^e7 - '
                                          '3/14*e6^e7',
                    'reduction_error': 'cannot normalize adapted frame: |w|^2 = 3-1/2*sqrt3 has no '
                                       'sqrt in QQ(sqrt3)'},
 'nonintsu3': {'kind': 'su3',
               'torsion.sigma0': '-2',
               'torsion.pi0': '0',
               'torsion.nu1': '0',
               'torsion.pi1': '0',
               'torsion.sigma2': '0',
               'torsion.pi2': '0',
               'torsion.nu3': '3*eta1^eta3^eta5 + eta2^eta4^eta5 + eta2^eta3^eta6 + eta1^eta4^eta6',
               'lee_form': '0',
               'strong_torsion': True,
               'torsion_oracle_agree': True,
               'canonical_vector': '0',
               'canonical_vector_norm_sq': '0',
               'grs_residual_zero': True,
               'weighted_scalar': '68/3',
               'nijenhuis_zero': False,
               'bismut_ricci_form_zero': True}}
