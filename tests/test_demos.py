"""Every demo script runs to completion and prints its recorded output
byte for byte (codes, counts, principal types, unrank lists, seeded
draws, typable samples, constants, roots and sigma values)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

TERMS_OUTPUT = """\
identity: \\1
  code: 0010
  size: 4

K (drops its second argument)
  text: \\\\2
  code: 0000110 (7 bits)
  free indices up to: 0

self-application
  text: \\(1 1)
  code: 00011010 (8 bits)
  free indices up to: 0

S combinator
  text: \\\\\\((3 1) (2 1))
  code: 00000001011110100111010 (23 bits)
  free indices up to: 0

an open term, index 2 is free
  text: \\(1 2)
  code: 000110110 (9 bits)
  free indices up to: 1

round trip: 00000111010 -> \\\\(2 1)
rejected '0010x': bit string may contain only '0' and '1'
rejected '00100': term complete after 4 bits, 1 left over
rejected '01': input ended inside a term (after 2 bits)
"""

COUNTING_OUTPUT = """\
n    closed      all
0    0           0
1    0           0
2    0           1
3    0           1
4    1           2
5    0           2
6    1           4
7    1           5
8    2           10
9    1           14
10   6           27
11   5           41
12   13          78
13   14          126
14   37          237
15   44          399
16   101         745
17   134         1292
18   298         2404
19   431         4259

count(m, 9) for m = 0..11: [1, 5, 8, 10, 12, 13, 13, 13, 14, 14, 14, 14]
saturates at m = n - 1 = 8 with value 14

count(inf,  40) / count(inf,  39) = 1.89226813
count(inf,  80) / count(inf,  79) = 1.92711348
count(inf, 160) / count(inf, 159) = 1.94516462
count(inf, 320) / count(inf, 319) = 1.95427578

functional equation holds through n = 150: True
"""

TYPES_OUTPUT = """\
I        \\1                     : a -> a
K        \\\\2                    : a -> b -> a
S        \\\\\\((3 1) (2 1))       : (a -> b -> c) -> (a -> b) -> a -> c
apply    \\\\(2 1)                : (a -> b) -> a -> b
compose  \\\\\\(3 (2 1))           : (a -> b) -> (c -> a) -> c -> b

\\(1 1)                 typable: False
(\\(1 1) \\(1 1))        typable: False

(1 2) in a 2-slot context:
  context: ['a -> b', 'a']
  type:    a

n    typable   closed     fraction
4    1         1          1.000
6    1         1          1.000
7    1         1          1.000
8    1         2          0.500
9    1         1          1.000
10   5         6          0.833
11   4         5          0.800
12   9         13         0.692
13   13        14         0.929
14   23        37         0.622
15   29        44         0.659
16   67        101        0.663
17   94        134        0.701
18   179       298        0.601
19   285       431        0.661
20   503       883        0.570
"""

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


@pytest.mark.parametrize(
    "name, expected",
    [
        ("01_terms_and_codes.py", TERMS_OUTPUT),
        ("02_counting.py", COUNTING_OUTPUT),
        ("04_types.py", TYPES_OUTPUT),
    ],
)
def test_demo_output_is_unchanged(name, expected):
    proc = run_demo(ROOT / "demos" / name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
