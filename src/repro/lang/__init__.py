"""The Infopipe composition microlanguage.

The paper plans "an Infopipe Composition and Restructuring Microlanguage"
(section 5, ref [24]) as the successor to the C++ setup interface.  This
package provides that declarative layer: textual pipeline descriptions are
parsed, resolved against a component registry, type-checked by the normal
composition machinery, and returned as ready-to-run pipelines.

::

    from repro.lang import build

    pipe = build('''
        mpeg_file(frames=300) >> decoder >> clocked_pump(30) >> tee(2) : t
        t.out0 >> display : live
        t.out1 >> keep(kind="I") >> buffer(32) >> clocked_pump(5) >> collect
    ''')

Grammar (one statement per line; ``#`` starts a comment)::

    statement := chain
    chain     := endpoint (">>" endpoint)*
    endpoint  := factory [":" alias] | alias | alias "." port
    factory   := NAME ["(" [arg ("," arg)*] ")"]
    arg       := literal | NAME "=" literal
    literal   := INT | FLOAT | STRING | "true" | "false"
"""

from repro.lang.parser import LangError, parse
from repro.lang.registry import Registry, default_registry
from repro.lang.builder import BuildResult, build

__all__ = [
    "BuildResult",
    "LangError",
    "Registry",
    "build",
    "default_registry",
    "parse",
]
