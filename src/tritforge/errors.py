"""Exception hierarchy shared by all tritforge modules."""


class TritforgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TritforgeError):
    """A value lies outside the domain an operation is defined on."""


class _LineError(TritforgeError):
    """An error that may carry a 1-based netlist line number, as ``.line``
    and as a ``line N:`` prefix of its message."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NetlistSyntaxError(_LineError):
    """Malformed netlist text. Carries a 1-based line number."""


class NetlistSemanticError(_LineError):
    """Structurally invalid netlist (undeclared net, duplicate id, ...)."""


class OscillationError(TritforgeError):
    """The solver found no fixed point within its round budget."""


class UnresolvableError(TritforgeError):
    """An output net stayed unresolved at the solver's fixed point."""


class UnknownNetError(TritforgeError):
    """A named net does not exist in the netlist."""


class NonInputAssumptionError(TritforgeError):
    """An assumption was placed on a net that is not a declared input."""


class NoDividerFoundError(TritforgeError):
    """Carry re-encoding could not locate a voltage-divider pair."""


class EquivalenceCheckFailedError(TritforgeError):
    """A pass changed the observable truth table of the netlist."""


class UnsupportedCombinationError(TritforgeError):
    """A generator was asked for an inconsistent style combination."""


class SchemaError(TritforgeError):
    """A catalog CSV row violates the record schema."""

    def __init__(self, message, row=None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class UnknownFieldError(TritforgeError):
    """Aggregation was requested over a field that does not exist."""
