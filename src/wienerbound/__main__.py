"""``python -m wienerbound``: the same command-line interface as the script."""

from .cli import entry

if __name__ == "__main__":
    entry()
