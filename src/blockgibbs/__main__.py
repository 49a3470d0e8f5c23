"""`python -m blockgibbs`: the command-line front end."""
from .cli import entry

entry()
