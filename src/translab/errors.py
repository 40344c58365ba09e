"""Exception types shared across the package.

A type exists only where some code catches it by name.  Every refusal of
the library, numerical or of an input, is a TranslabError (CLI exit code
1), told apart by its message; as a ValueError, it still reaches a caller
that catches one.  A caller below the CLI may re-word one on its way up, as
continuation does with a strip solve's, but never swallows it.
"""


class TranslabError(ValueError):
    """Base class for numerical and contract failures."""
