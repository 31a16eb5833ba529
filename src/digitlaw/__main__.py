"""Allow `python -m digitlaw`, which cli.run runs and ends."""

from .cli import run

if __name__ == "__main__":
    run()
