"""Training substrate: synthetic tasks, loops, evaluation protocols."""
