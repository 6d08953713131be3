"""Binary lambda calculus toolkit.

Lambda terms in de Bruijn form, their self-delimiting binary codes,
exact counts by size, a rank/unrank bijection with uniform sampling,
simple-type inference, and the singularity analysis behind the growth
rate of the counting sequences.
"""

from .terms import *
from .counting import *
from .enumeration import *
from .typecheck import *
from .asymptotics import *

__version__ = "0.1.0"
