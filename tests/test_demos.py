"""Every demo script runs to completion, and the enumeration and
asymptotics demos print their recorded output byte for byte (unrank
lists, seeded draws, typable samples, constants, roots and sigma
values)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ENUMERATION_OUTPUT = """\
closed terms of size 10 (6 of them):
  1: \\\\\\\\1          0000000010
  2: \\\\\\3           0000001110
  3: \\\\(1 1)        0000011010
  4: \\(1 \\1)        0001100010
  5: \\(\\1 1)        0001001010
  6: (\\1 \\1)        0100100010

unrank(0, 26, 12345) = \\\\(\\(\\1 (1 \\3)) 1)
rank of that term    = 12345

five draws at (m, n) = (0, 30), seed 11:
  000100011001000001100110101010
  010100000100000010100000100010
  000101100000010001110110001010
  000100011001011010010110101010
  010000110000100011100010011010
same seed reproduces them: True

12000 draws over the 6-term class (expect ~2000 each):
  [1982, 1979, 2128, 2031, 1975, 1905]

a random typable closed term of size 30:
  \\(\\1 \\\\\\\\(1 (4 2)))
  type: a -> (b -> c) -> d -> b -> (c -> e) -> e
"""

ASYMPTOTICS_OUTPUT = """\
rho     = 0.5093081270242373
1/rho   = 1.963447954075964
Q(rho)  = 3.4026344905097745
c_tilde = -3.6224492712960124
C       = 1.0218740728976852

note on c_tilde:
  c = c_tilde / Gamma(-1/2) with Gamma(-1/2) = -2*sqrt(pi) ~ -3.5449077. c_tilde here evaluates to about -3.6224493, roughly 4*pi times the -0.288265354 sometimes quoted for this coefficient; the quoted value is inconsistent with the chain above, while c itself is confirmed by the exact counts (count(inf, 600) * rho**600 * 600**1.5 agrees with c to about 0.2%).

singularity polynomial coefficients (ascending): (1, -2, -1, 4, -5, 2, 1)
real roots: [-3.6681000043307677, -0.6238451419857256, 0.5093081270239281, 1.0]

after removing the root at 1: (-1, 1, 2, -2, 3, 1)

m    sigma_m
0    1.0000000000
1    0.5773502692
2    0.5361465868
3    0.5214089433
4    0.5150840087
6    0.5107246377
8    0.5096691019
12   0.5093322399
rho  0.5093081270

bound_discriminant(6) roots in (0, 1]: [0.5107246377, 1.0]

scaled counts count(m, n) * rho^n * n^(3/2):
n      m=0           m=inf
30     0.078200762   0.984228607
60     0.047247997   1.001161243
120    0.030531170   1.011191818
240    0.021798721   1.016451752

C    = 1.021874073
"""


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


def test_asymptotics_demo_output_is_unchanged():
    proc = run_demo(ROOT / "demos" / "05_asymptotics.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ASYMPTOTICS_OUTPUT


def test_enumeration_demo_output_is_unchanged():
    proc = run_demo(ROOT / "demos" / "03_enumerate_and_sample.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ENUMERATION_OUTPUT
