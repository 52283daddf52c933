"""The ``repro-obs`` subcommands, one module each.

Every module has ``register(sub)``, which adds its subparser and
arguments and returns it, and ``run(args)``, which returns the exit
code.
:func:`repro.obs.cli.build_parser` registers them from a literal tuple,
so a new subcommand is one more module and one more entry there.
"""
