"""Gate-level combinational circuits with black boxes.

This is the front-end of the paper's reference application: partial
equivalence checking (PEC) of incomplete designs.  A :class:`Circuit`
is a netlist of simple gates over named signals; a :class:`BlackBox`
marks a missing part with known input/output signals but unknown
function.  Circuits must be acyclic; black boxes may feed each other as
long as the overall netlist stays acyclic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..aig.graph import Aig, FALSE, TRUE, complement

GATE_KINDS = {"and", "or", "not", "xor", "xnor", "nand", "nor", "buf", "const0", "const1"}


class Gate:
    """A named gate: ``output = kind(inputs)``."""

    def __init__(self, output: str, kind: str, inputs: Sequence[str]):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "not" and len(inputs) != 1:
            raise ValueError("not gate takes exactly one input")
        if kind == "buf" and len(inputs) != 1:
            raise ValueError("buf gate takes exactly one input")
        if kind.startswith("const") and inputs:
            raise ValueError("constant gates take no inputs")
        self.output = output
        self.kind = kind
        self.inputs = list(inputs)

    def __repr__(self) -> str:
        return f"Gate({self.output} = {self.kind}{tuple(self.inputs)})"


class BlackBox:
    """A missing circuit part: known interface, unknown function."""

    def __init__(self, name: str, inputs: Sequence[str], outputs: Sequence[str]):
        if not outputs:
            raise ValueError("black boxes need at least one output")
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)

    def __repr__(self) -> str:
        return f"BlackBox({self.name}: {self.inputs} -> {self.outputs})"


class Circuit:
    """A combinational netlist, possibly containing black boxes."""

    def __init__(self, name: str, inputs: Sequence[str], outputs: Sequence[str]):
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.gates: List[Gate] = []
        self.black_boxes: List[BlackBox] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(self, output: str, kind: str, inputs: Sequence[str] = ()) -> str:
        self.gates.append(Gate(output, kind, inputs))
        return output

    def add_black_box(self, name: str, inputs: Sequence[str], outputs: Sequence[str]) -> BlackBox:
        box = BlackBox(name, inputs, outputs)
        self.black_boxes.append(box)
        return box

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def drivers(self) -> Dict[str, object]:
        """Map every driven signal to its gate or black box."""
        driven: Dict[str, object] = {}
        for gate in self.gates:
            if gate.output in driven:
                raise ValueError(f"signal {gate.output} driven twice")
            driven[gate.output] = gate
        for box in self.black_boxes:
            for out in box.outputs:
                if out in driven:
                    raise ValueError(f"signal {out} driven twice")
                driven[out] = box
        return driven

    def validate(self) -> None:
        """Check that the netlist is complete and acyclic."""
        driven = self.drivers()
        known = set(self.inputs) | set(driven)
        for gate in self.gates:
            for sig in gate.inputs:
                if sig not in known:
                    raise ValueError(f"gate {gate.output}: undriven input {sig}")
        for box in self.black_boxes:
            for sig in box.inputs:
                if sig not in known:
                    raise ValueError(f"black box {box.name}: undriven input {sig}")
        for out in self.outputs:
            if out not in known:
                raise ValueError(f"undriven primary output {out}")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[object]:
        """Gates and black boxes sorted so drivers precede users."""
        driven = self.drivers()
        order: List[object] = []
        state: Dict[int, int] = {}

        def visit(item: object, stack: Set[int]) -> None:
            key = id(item)
            if state.get(key) == 1:
                return
            if key in stack:
                raise ValueError(f"combinational cycle through {item!r}")
            stack.add(key)
            inputs = item.inputs
            for sig in inputs:
                drv = driven.get(sig)
                if drv is not None:
                    visit(drv, stack)
            stack.discard(key)
            state[key] = 1
            order.append(item)

        for item in list(self.gates) + list(self.black_boxes):
            visit(item, set())
        return order

    @property
    def is_complete(self) -> bool:
        return not self.black_boxes

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def simulate(
        self,
        input_values: Dict[str, bool],
        box_functions: Optional[Dict[str, Dict[Tuple[bool, ...], bool]]] = None,
    ) -> Dict[str, bool]:
        """Evaluate the netlist for one input vector.

        ``box_functions`` maps black-box *output* names to truth tables
        over the box's input tuple; required when the circuit is
        incomplete.
        """
        values: Dict[str, bool] = dict(input_values)
        for item in self.topological_order():
            if isinstance(item, Gate):
                values[item.output] = _evaluate_gate(item, values)
            else:
                if box_functions is None:
                    raise ValueError(f"no function supplied for black box {item.name}")
                key = tuple(values[s] for s in item.inputs)
                for out in item.outputs:
                    values[out] = box_functions[out][key]
        return {out: values[out] for out in self.outputs}

    def to_aig(
        self,
        aig: Aig,
        input_edges: Dict[str, int],
        box_output_edges: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        """Build AIG edges for every signal; returns the full signal map.

        Black-box outputs must be supplied as edges in
        ``box_output_edges`` (they become free variables of the PEC
        encoding).
        """
        edges: Dict[str, int] = dict(input_edges)
        if box_output_edges:
            edges.update(box_output_edges)
        for item in self.topological_order():
            if isinstance(item, Gate):
                edges[item.output] = _gate_to_aig(aig, item, edges)
            else:
                for out in item.outputs:
                    if out not in edges:
                        raise ValueError(
                            f"black box output {out} needs an edge in box_output_edges"
                        )
        return edges

    def copy(self, name: Optional[str] = None) -> "Circuit":
        clone = Circuit(name or self.name, self.inputs, self.outputs)
        for gate in self.gates:
            clone.add_gate(gate.output, gate.kind, gate.inputs)
        for box in self.black_boxes:
            clone.add_black_box(box.name, box.inputs, box.outputs)
        return clone

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={len(self.gates)}, "
            f"black_boxes={len(self.black_boxes)})"
        )


def _evaluate_gate(gate: Gate, values: Dict[str, bool]) -> bool:
    ins = [values[s] for s in gate.inputs]
    if gate.kind == "and":
        return all(ins)
    if gate.kind == "or":
        return any(ins)
    if gate.kind == "not":
        return not ins[0]
    if gate.kind == "buf":
        return ins[0]
    if gate.kind == "xor":
        result = False
        for v in ins:
            result ^= v
        return result
    if gate.kind == "xnor":
        result = True
        for v in ins:
            result ^= v
        return result
    if gate.kind == "nand":
        return not all(ins)
    if gate.kind == "nor":
        return not any(ins)
    if gate.kind == "const0":
        return False
    if gate.kind == "const1":
        return True
    raise AssertionError(gate.kind)


def _gate_to_aig(aig: Aig, gate: Gate, edges: Dict[str, int]) -> int:
    ins = [edges[s] for s in gate.inputs]
    if gate.kind == "and":
        return aig.land_many(ins)
    if gate.kind == "or":
        return aig.lor_many(ins)
    if gate.kind == "not":
        return complement(ins[0])
    if gate.kind == "buf":
        return ins[0]
    if gate.kind == "xor":
        edge = FALSE
        for e in ins:
            edge = aig.lxor(edge, e)
        return edge
    if gate.kind == "xnor":
        edge = FALSE
        for e in ins:
            edge = aig.lxor(edge, e)
        return complement(edge)
    if gate.kind == "nand":
        return complement(aig.land_many(ins))
    if gate.kind == "nor":
        return complement(aig.lor_many(ins))
    if gate.kind == "const0":
        return FALSE
    if gate.kind == "const1":
        return TRUE
    raise AssertionError(gate.kind)
