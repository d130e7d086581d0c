"""The repo's end-to-end speed benchmark (see README.md beside this file)."""
