"""PSMACA: MACA pattern classification and signal-domain protein
secondary-structure prediction.

Importing the package loads none of its modules: import the one you use,
as in `from psmaca import maca`, so a command loads only what it runs.
"""

__version__ = "0.1.0"
