"""``python -m grassmoment``: the same command line as the ``grassmoment`` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
