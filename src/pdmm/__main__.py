"""`python -m pdmm` runs the `pdmm` command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
