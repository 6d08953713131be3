"""Simple types: inference, principal types, and the typable census.

infer() runs unification-based type reconstruction and returns the
principal typing (most general: every other valid typing is a
substitution instance), or None when no simple type exists.
count_typable() counts how many terms of each size are typable by
building the whole size class depth first and typing each term while it
builds it.
"""

from blc import count, count_typable, infer, is_typable, parse_text
from blc.typecheck import format_type

# Principal types of the standard combinators.
for label, text in [
    ("I", "\\1"),
    ("K", "\\\\2"),
    ("S", "\\\\\\((3 1) (2 1))"),
    ("apply", "\\\\(2 1)"),
    ("compose", "\\\\\\(3 (2 1))"),
]:
    typing = infer(parse_text(text))
    print("%-8s %-22s : %s" % (label, text, format_type(typing.type)))
print()

# Self-application has no simple type: 1 would need type a and a -> b
# at once.  Omega (self-application applied to itself) fails the same
# way, and is_typable is the cheap yes/no form.
for text in ["\\(1 1)", "(\\(1 1) \\(1 1))"]:
    print("%-22s typable: %s" % (text, is_typable(parse_text(text), 0)))
print()

# Open terms: free indices get their types from a context, reported
# alongside the term's own type (context position 0 is index 1).
typing = infer(parse_text("(1 2)"), free_count=2)
print("(1 2) in a 2-slot context:")
print("  context:", [format_type(t) for t in typing.context])
print("  type:   ", format_type(typing.type))
print()

# The census: typable terms are a thinning minority, and more so with
# size.  (closed column; the fraction is against all closed terms)
print("n    typable   closed     fraction")
for n in range(4, 21):
    typable = count_typable(n, closed=True)
    total = count(0, n)
    if total == 0:
        continue
    print("%-3d  %-8d  %-9d  %.3f" % (n, typable, total, typable / total))
