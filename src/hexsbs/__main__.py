"""Run the command line as `python -m hexsbs <command> ...`."""

from .cli import main

if __name__ == "__main__":
    main()
