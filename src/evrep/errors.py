"""The three errors the toolkit raises on bad input, one per way it is handled.

* EvrepError: any data failure (a malformed file, a stream of another
  geometry, a window out of order, an empty input); the CLI prints its
  message and exits 2.
* InvalidParamError: a value outside its documented domain. When a flag
  value caused it (the CLI builds its configs through ``cli._config``) the
  CLI exits 1, a usage error; raised by input data, it is an EvrepError
  like any other and exits 2. It is also a ValueError.
* ParseError: a text row that cannot be read; carries the 1-based ``line``
  and prefixes its message with ``line N:``. It exits 2.

What went wrong is said by the message, which the CLI prints unchanged.
"""


class EvrepError(Exception):
    """Any failure on bad input data; the CLI exits 2."""


class InvalidParamError(EvrepError, ValueError):
    """A parameter violates its documented domain (e.g. queue depth < 1)."""


class ParseError(EvrepError):
    """Text input could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
