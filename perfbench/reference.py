"""Fixed reference program that measures the machine's current speed.

The benchmark runs it as its own process before and after every timed
step.  Its work never changes: pure-Python tuple, dict and string-slicing
loops like psmaca's hot paths, after the same numpy import a psmaca
process pays.  So its wall time follows the speed the machine gives a
psmaca process at that moment, and dividing by it takes out the
machine's drift.
"""

import numpy  # noqa: F401

table: dict = {}
odd = 0
for i in range(800_000):
    key = (i & 1023, i % 7, i % 5)
    table[key] = table.get(key, 0) + 1
    odd += sum(key) & 1

text = "".join(chr(65 + (i * 7) % 20) for i in range(250_000))
kmers: dict = {}
for i in range(len(text) - 2):
    kmer = text[i:i + 3]
    kmers[kmer] = kmers.get(kmer, 0) + 1

print(odd, len(table), len(kmers))
