"""Signal-flow graph intermediate representation.

The synthesis flow of the paper series (Jiang, Kharam, Riedel & Parhi,
ICCAD 2010; DAC 2011) starts from a DSP-style signal-flow graph: inputs,
outputs, unit delays, adders, and constant gains.  This module provides
that IR plus its reduction to *matrix form*:

    sinks = C . sources

where ``sources`` are the values available at a cycle boundary (external
inputs and delay-element outputs), ``sinks`` are the values to be produced
during the cycle (external outputs and delay-element inputs), and ``C`` is
a matrix of exact rational coefficients obtained by summing gain products
over all combinational paths.  Any *linear* SFG reduces to this form, and
the matrix form maps onto exactly one three-phase cycle: fan-out
(red->green), gain/add (green->blue), land (blue->red).

Combinational cycles (loops not passing through a delay) are rejected --
the same legality rule as in digital-circuit design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.core.phases import rational_gain
from repro.errors import SynthesisError

_KINDS = ("input", "output", "delay", "gain", "add")


@dataclass(frozen=True)
class NodeRef:
    """Opaque handle to a node in a :class:`SignalFlowGraph`."""

    graph_id: int
    index: int


@dataclass
class _Node:
    kind: str
    name: str
    gain: Fraction | None = None
    preds: list[int] = field(default_factory=list)


class SignalFlowGraph:
    """Builder for linear signal-flow graphs.

    Example (first-order IIR low-pass ``y[n] = x[n]/2 + y[n-1]/2``)::

        sfg = SignalFlowGraph("iir1")
        x = sfg.input("x")
        state = sfg.delay("s")
        y = sfg.add(sfg.gain(Fraction(1, 2), x),
                    sfg.gain(Fraction(1, 2), state))
        sfg.output("y", y)
        sfg.connect(y, state)      # the delay stores y for the next cycle
    """

    _next_graph_id = 0

    def __init__(self, name: str = "sfg"):
        self.name = name
        self._nodes: list[_Node] = []
        self._delay_inputs: dict[int, int] = {}
        self._initial_state: dict[str, float] = {}
        SignalFlowGraph._next_graph_id += 1
        self._graph_id = SignalFlowGraph._next_graph_id

    # -- construction ------------------------------------------------------------

    def _add_node(self, node: _Node) -> NodeRef:
        self._nodes.append(node)
        return NodeRef(self._graph_id, len(self._nodes) - 1)

    def _resolve(self, ref: NodeRef) -> int:
        if not isinstance(ref, NodeRef) or ref.graph_id != self._graph_id:
            raise SynthesisError("node reference belongs to another graph")
        return ref.index

    def input(self, name: str) -> NodeRef:
        """Declare an external input signal."""
        self._check_fresh_name(name)
        return self._add_node(_Node("input", name))

    def output(self, name: str, source: NodeRef) -> NodeRef:
        """Declare an external output driven by ``source``."""
        self._check_fresh_name(name)
        return self._add_node(_Node("output", name,
                                    preds=[self._resolve(source)]))

    def delay(self, name: str, source: NodeRef | None = None,
              initial: float = 0.0) -> NodeRef:
        """Declare a unit delay element.

        The returned reference stands for the delay's *output* (last
        cycle's stored value).  Connect its input with ``source=`` here or
        later via :meth:`connect` (necessary for feedback loops).
        """
        self._check_fresh_name(name)
        ref = self._add_node(_Node("delay", name))
        if initial:
            self._initial_state[name] = float(initial)
        if source is not None:
            self.connect(source, ref)
        return ref

    def gain(self, coefficient, source: NodeRef) -> NodeRef:
        """A constant multiplier; the coefficient is snapped to an exact
        rational (see :func:`repro.core.phases.rational_gain`)."""
        coefficient = rational_gain(coefficient)
        index = self._resolve(source)
        return self._add_node(_Node("gain", f"gain{len(self._nodes)}",
                                    gain=coefficient, preds=[index]))

    def add(self, *sources: NodeRef) -> NodeRef:
        """Sum of two or more signals."""
        if len(sources) < 2:
            raise SynthesisError("add needs at least two operands")
        preds = [self._resolve(s) for s in sources]
        return self._add_node(_Node("add", f"add{len(self._nodes)}",
                                    preds=preds))

    def subtract(self, minuend: NodeRef, subtrahend: NodeRef) -> NodeRef:
        """``minuend - subtrahend`` (sugar for add + gain(-1))."""
        return self.add(minuend, self.gain(Fraction(-1), subtrahend))

    def connect(self, source: NodeRef, delay: NodeRef) -> None:
        """Connect a delay element's input (for feedback paths)."""
        delay_index = self._resolve(delay)
        node = self._nodes[delay_index]
        if node.kind != "delay":
            raise SynthesisError("connect target must be a delay node")
        if delay_index in self._delay_inputs:
            raise SynthesisError(
                f"delay {node.name!r} already has an input")
        self._delay_inputs[delay_index] = self._resolve(source)

    def set_initial(self, delay_name: str, value: float) -> None:
        if delay_name not in [n.name for n in self._nodes
                              if n.kind == "delay"]:
            raise SynthesisError(f"no delay named {delay_name!r}")
        self._initial_state[delay_name] = float(value)

    def _check_fresh_name(self, name: str) -> None:
        for node in self._nodes:
            if node.kind in ("input", "output", "delay") and \
                    node.name == name:
                raise SynthesisError(f"name {name!r} already used")

    # -- queries -------------------------------------------------------------------

    @property
    def input_names(self) -> list[str]:
        return [n.name for n in self._nodes if n.kind == "input"]

    @property
    def output_names(self) -> list[str]:
        return [n.name for n in self._nodes if n.kind == "output"]

    @property
    def delay_names(self) -> list[str]:
        return [n.name for n in self._nodes if n.kind == "delay"]

    def content_key(self) -> tuple:
        """Everything :meth:`to_matrix` reads, as a hashable tuple: the
        name, every node, the delay inputs and the initial state.  Equal
        keys reduce to equal matrix forms, and computing one costs a
        fraction of the reduction."""
        return (self.name,
                tuple((node.kind, node.name, node.gain, tuple(node.preds))
                      for node in self._nodes),
                tuple(sorted(self._delay_inputs.items())),
                tuple(sorted(self._initial_state.items())))

    # -- matrix reduction -------------------------------------------------------------

    def to_matrix(self) -> "MatrixDesign":
        """Reduce to matrix form; raises on combinational cycles or
        unconnected delay inputs."""
        for index, node in enumerate(self._nodes):
            if node.kind == "delay" and index not in self._delay_inputs:
                raise SynthesisError(
                    f"delay {node.name!r} has no input; use connect()")

        coefficients: dict[tuple[str, str], Fraction] = {}
        for index, node in enumerate(self._nodes):
            if node.kind == "output":
                sink = node.name
                upstream = node.preds[0]
            elif node.kind == "delay":
                sink = node.name
                upstream = self._delay_inputs[index]
            else:
                continue
            for source, coeff in self._path_gains(upstream).items():
                key = (sink, source)
                coefficients[key] = coefficients.get(key, Fraction(0)) + coeff

        coefficients = {k: v for k, v in coefficients.items() if v != 0}
        return MatrixDesign(
            name=self.name,
            inputs=self.input_names,
            outputs=self.output_names,
            delays=self.delay_names,
            coefficients=coefficients,
            initial_state=dict(self._initial_state))

    def _path_gains(self, index: int,
                    _stack: frozenset[int] = frozenset()
                    ) -> dict[str, Fraction]:
        """Summed gain products from every source reaching ``index``."""
        if index in _stack:
            raise SynthesisError(
                "combinational cycle detected (a loop must pass through "
                "a delay element)")
        node = self._nodes[index]
        if node.kind in ("input", "delay"):
            return {node.name: Fraction(1)}
        stack = _stack | {index}
        if node.kind == "gain":
            inner = self._path_gains(node.preds[0], stack)
            return {src: c * node.gain for src, c in inner.items()}
        if node.kind == "add":
            total: dict[str, Fraction] = {}
            for pred in node.preds:
                for src, c in self._path_gains(pred, stack).items():
                    total[src] = total.get(src, Fraction(0)) + c
            return total
        raise SynthesisError(f"node kind {node.kind!r} cannot feed a sink")


@dataclass
class MatrixDesign:
    """Matrix form of a linear synchronous design.

    ``coefficients[(sink, source)]`` is the exact rational weight with
    which ``source`` (an input or a delay output) contributes to ``sink``
    (an output or a delay input) within one cycle.
    """

    name: str
    inputs: list[str]
    outputs: list[str]
    delays: list[str]
    coefficients: dict[tuple[str, str], Fraction]
    initial_state: dict[str, float] = field(default_factory=dict)

    @property
    def sources(self) -> list[str]:
        return self.inputs + self.delays

    @property
    def sinks(self) -> list[str]:
        return self.outputs + self.delays

    @property
    def signed(self) -> bool:
        """True if any coefficient is negative (dual-rail needed)."""
        return any(c < 0 for c in self.coefficients.values())

    def coefficient(self, sink: str, source: str) -> Fraction:
        return self.coefficients.get((sink, source), Fraction(0))

    def fanout_of(self, source: str) -> list[str]:
        """Sinks that ``source`` feeds (nonzero coefficient)."""
        return [sink for sink in self.sinks
                if (sink, source) in self.coefficients]

    def validate(self) -> None:
        sources, sinks = set(self.sources), set(self.sinks)
        if len(sources) != len(self.sources):
            raise SynthesisError("duplicate source names")
        if len(set(self.outputs)) != len(self.outputs):
            raise SynthesisError("duplicate output names")
        for (sink, source) in self.coefficients:
            if sink not in sinks:
                raise SynthesisError(f"unknown sink {sink!r}")
            if source not in sources:
                raise SynthesisError(f"unknown source {source!r}")
        for name in self.initial_state:
            if name not in self.delays:
                raise SynthesisError(
                    f"initial state for non-delay {name!r}")

    def reference_step(self, state: dict[str, float],
                       inputs: dict[str, float]) -> tuple[dict, dict]:
        """Exact discrete-time semantics: one synchronous cycle.

        Returns ``(outputs, next_state)``.  This is the golden model the
        molecular implementation is tested against.
        """
        source_values = {**{k: float(v) for k, v in inputs.items()},
                         **{k: float(v) for k, v in state.items()}}
        outputs = {}
        next_state = {}
        for sink in self.sinks:
            value = 0.0
            for source in self.sources:
                coeff = self.coefficient(sink, source)
                if coeff:
                    value += float(coeff) * source_values.get(source, 0.0)
            if sink in self.outputs:
                outputs[sink] = value
            else:
                next_state[sink] = value
        return outputs, next_state

    def reference_run(self, input_streams: dict[str, list[float]]
                      ) -> dict[str, list[float]]:
        """Run the golden model over full input streams."""
        lengths = {len(v) for v in input_streams.values()}
        if len(lengths) > 1:
            raise SynthesisError("input streams must have equal length")
        n = lengths.pop() if lengths else 0
        state = {name: self.initial_state.get(name, 0.0)
                 for name in self.delays}
        outputs: dict[str, list[float]] = {name: [] for name in self.outputs}
        for i in range(n):
            step_inputs = {k: v[i] for k, v in input_streams.items()}
            step_outputs, state = self.reference_step(state, step_inputs)
            for name, value in step_outputs.items():
                outputs[name].append(value)
        return outputs
