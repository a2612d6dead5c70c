"""Host-clock benchmark of the MINOS reproduction (see README.md)."""
