"""The repository benchmark: see README.md in this directory."""
