"""One module per CLI command, each with a ``run(args)``.

``cli.main`` imports only the module of the command it runs, so a CLI
child compiles the code of that command alone.
"""
