"""NFIL containers: basic blocks, functions, memory regions and modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import Instruction

# Memory regions are laid out on a fixed virtual-address grid so that the
# cache model sees realistic, page-aligned addresses.  The spacing mirrors
# the paper's use of 1GB pages: each region starts on its own "huge page".
REGION_ALIGNMENT = 1 << 21  # 2 MiB stand-in for the paper's 1 GB pages
REGION_BASE_ADDRESS = 1 << 30


@dataclass
class MemoryRegion:
    """A named, statically sized array of fixed-width elements.

    This is the NFIL analogue of a global array in the C NFs (a hash-table
    bucket array, a trie node pool, a direct-lookup table...).  ``initial``
    maps element index to initial value; unset elements read as zero.
    """

    name: str
    length: int
    element_size: int = 8
    initial: dict[int, int] = field(default_factory=dict)
    base_address: int = 0

    @property
    def size_bytes(self) -> int:
        return self.length * self.element_size

    def address_of(self, index: int) -> int:
        """Byte address of element ``index`` (no bounds check)."""
        return self.base_address + index * self.element_size

    def index_of(self, address: int) -> int:
        """Inverse of :meth:`address_of`."""
        return (address - self.base_address) // self.element_size

    def contains_address(self, address: int) -> bool:
        return self.base_address <= address < self.base_address + self.size_bytes


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def append(self, instruction: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.name!r} is already terminated")
        self.instructions.append(instruction)
        return instruction

    def __iter__(self):
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class Function:
    """An NFIL function: parameters plus an ordered list of basic blocks."""

    name: str
    params: list[str] = field(default_factory=list)
    blocks: list[BasicBlock] = field(default_factory=list)

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def block(self, name: str) -> BasicBlock:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(f"function {self.name!r} has no block {name!r}")

    def add_block(self, name: str) -> BasicBlock:
        if any(b.name == name for b in self.blocks):
            raise ValueError(f"duplicate block name {name!r} in {self.name!r}")
        blk = BasicBlock(name=name)
        self.blocks.append(blk)
        return blk

    def instructions(self):
        """Iterate over all instructions in block order."""
        for blk in self.blocks:
            yield from blk.instructions

    @property
    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)


class Module:
    """A compiled NF: functions plus the memory regions they reference.

    The module assigns every region a base virtual address on a huge-page
    aligned grid, so loads and stores translate deterministically to the
    byte addresses the cache model reasons about.
    """

    def __init__(self, name: str = "nf") -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.regions: dict[str, MemoryRegion] = {}
        self._next_uid = 0
        self._next_region_base = REGION_BASE_ADDRESS

    # -- functions --------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        self._assign_uids(function)
        return function

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"module {self.name!r} has no function {name!r}") from None

    def _assign_uids(self, function: Function) -> None:
        for instruction in function.instructions():
            if instruction.uid < 0:
                instruction.uid = self._next_uid
                self._next_uid += 1

    def reassign_uids(self) -> None:
        """Re-number every instruction (after post-construction edits)."""
        self._next_uid = 0
        for function in self.functions.values():
            for instruction in function.instructions():
                instruction.uid = self._next_uid
                self._next_uid += 1

    @property
    def instruction_count(self) -> int:
        return sum(f.instruction_count for f in self.functions.values())

    # -- memory regions ---------------------------------------------------

    def add_region(
        self,
        name: str,
        length: int,
        element_size: int = 8,
        initial: dict[int, int] | None = None,
    ) -> MemoryRegion:
        if name in self.regions:
            raise ValueError(f"duplicate region {name!r}")
        if length <= 0 or element_size <= 0:
            raise ValueError("region length and element size must be positive")
        region = MemoryRegion(
            name=name,
            length=length,
            element_size=element_size,
            initial=dict(initial or {}),
            base_address=self._next_region_base,
        )
        span = region.size_bytes
        aligned = (span + REGION_ALIGNMENT - 1) // REGION_ALIGNMENT * REGION_ALIGNMENT
        self._next_region_base += max(aligned, REGION_ALIGNMENT)
        self.regions[name] = region
        return region

    def get_region(self, name: str) -> MemoryRegion:
        try:
            return self.regions[name]
        except KeyError:
            raise KeyError(f"module {self.name!r} has no region {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, functions={len(self.functions)}, "
            f"regions={len(self.regions)}, instructions={self.instruction_count})"
        )
