"""frcalc: a calculus of matrix-algebra frames, unital *-homomorphisms,
centralizers, finite Fredholm index models, and exact abelian-group
arithmetic, with seeded property batteries and a JSON CLI."""

__version__ = "0.1.0"
