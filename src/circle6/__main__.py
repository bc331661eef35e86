"""``python -m circle6 ...``: the `circle6` command without the installed
console script."""

from .cli import main

if __name__ == "__main__":
    main()
