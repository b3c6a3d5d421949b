"""Registered memory: sparse backing, regions, rkeys, access checks.

A host's memory is a single sparse address space managed by
:class:`MemoryManager` (bump allocation).  Remote access goes through a
:class:`MemoryRegion` looked up by rkey, with bounds and permission
checks exactly where a real RNIC would fail a work request.

The backing store is page-sparse so a "1M-record" store can be declared
without materializing gigabytes; unwritten bytes read as zeros.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Dict

from repro.common.errors import RDMAError
from repro.common.errors import MemoryAccessError

_PAGE = 4096
_U64 = struct.Struct("<Q")


class SparseMemory:
    """A page-sparse byte store; unwritten bytes read as zero."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr``."""
        offset = addr
        view = memoryview(data)
        while view:
            page_no, page_off = divmod(offset, _PAGE)
            chunk = min(_PAGE - page_off, len(view))
            page = self._pages.get(page_no)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_no] = page
            page[page_off : page_off + chunk] = view[:chunk]
            view = view[chunk:]
            offset += chunk

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr``."""
        out = bytearray(size)
        offset = addr
        pos = 0
        while pos < size:
            page_no, page_off = divmod(offset, _PAGE)
            chunk = min(_PAGE - page_off, size - pos)
            page = self._pages.get(page_no)
            if page is not None:
                out[pos : pos + chunk] = page[page_off : page_off + chunk]
            pos += chunk
            offset += chunk
        return bytes(out)

    def read_u64(self, addr: int) -> int:
        """Read an unsigned little-endian 64-bit word."""
        # Words are the control plane's unit (token pool, report slots),
        # so the intra-page case gets a direct unpack instead of the
        # generic page-walking read.
        page_no, page_off = divmod(addr, _PAGE)
        if page_off <= _PAGE - 8:
            page = self._pages.get(page_no)
            if page is None:
                return 0
            return _U64.unpack_from(page, page_off)[0]
        return _U64.unpack(self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Write an unsigned little-endian 64-bit word."""
        page_no, page_off = divmod(addr, _PAGE)
        if page_off <= _PAGE - 8:
            page = self._pages.get(page_no)
            if page is None:
                page = bytearray(_PAGE)
                self._pages[page_no] = page
            _U64.pack_into(page, page_off, value & 0xFFFFFFFFFFFFFFFF)
            return
        self.write(addr, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))


@dataclasses.dataclass(frozen=True)
class Permissions:
    """Remote-access rights attached to a registered region."""

    remote_read: bool = False
    remote_write: bool = False
    remote_atomic: bool = False

    @classmethod
    def all(cls) -> "Permissions":
        """Read + write + atomic."""
        return cls(remote_read=True, remote_write=True, remote_atomic=True)

    @classmethod
    def read_only(cls) -> "Permissions":
        """Remote read only."""
        return cls(remote_read=True)


@dataclasses.dataclass(frozen=True)
class MemoryRegion:
    """A registered window of a host's memory, addressable by rkey."""

    rkey: int
    addr: int
    length: int
    perms: Permissions

    def contains(self, addr: int, size: int) -> bool:
        """True when [addr, addr+size) lies inside the region."""
        return self.addr <= addr and addr + size <= self.addr + self.length


class MemoryManager:
    """Per-host memory: allocation, registration, checked remote access."""

    def __init__(self) -> None:
        self.backing = SparseMemory()
        self._next_addr = _PAGE  # keep 0 unmapped to catch null derefs
        self._next_rkey = 0x1000
        self._regions: Dict[int, MemoryRegion] = {}

    # -- allocation / registration -------------------------------------
    def allocate(self, size: int, align: int = 8) -> int:
        """Reserve ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        addr = (self._next_addr + align - 1) // align * align
        self._next_addr = addr + size
        return addr

    def register(self, addr: int, length: int, perms: Permissions) -> MemoryRegion:
        """Register [addr, addr+length) for remote access; returns the MR."""
        if length <= 0:
            raise ValueError(f"region length must be positive, got {length}")
        rkey = self._next_rkey
        self._next_rkey += 1
        region = MemoryRegion(rkey=rkey, addr=addr, length=length, perms=perms)
        self._regions[rkey] = region
        return region

    def allocate_and_register(
        self, size: int, perms: Permissions
    ) -> MemoryRegion:
        """Allocate then register in one step."""
        return self.register(self.allocate(size), size, perms)

    def deregister(self, region: MemoryRegion) -> None:
        """Invalidate the region's rkey."""
        if region.rkey not in self._regions:
            raise RDMAError(f"rkey {region.rkey:#x} is not registered")
        del self._regions[region.rkey]

    def region(self, rkey: int) -> MemoryRegion:
        """Look up a region by rkey."""
        try:
            return self._regions[rkey]
        except KeyError:
            raise MemoryAccessError(f"unknown rkey {rkey:#x}") from None

    # -- checked remote access (used by the target NIC) -----------------
    def _check(self, rkey: int, addr: int, size: int, need: str) -> MemoryRegion:
        region = self.region(rkey)
        if not region.contains(addr, size):
            raise MemoryAccessError(
                f"access [{addr:#x}, +{size}) outside region "
                f"[{region.addr:#x}, +{region.length}) (rkey {rkey:#x})"
            )
        if not getattr(region.perms, need):
            raise MemoryAccessError(f"region rkey {rkey:#x} lacks {need}")
        return region

    def remote_read(self, rkey: int, addr: int, size: int) -> bytes:
        """Checked remote READ."""
        self._check(rkey, addr, size, "remote_read")
        return self.backing.read(addr, size)

    def remote_write(self, rkey: int, addr: int, data: bytes) -> None:
        """Checked remote WRITE."""
        self._check(rkey, addr, len(data), "remote_write")
        self.backing.write(addr, data)

    def remote_write_u64(self, rkey: int, addr: int, value: int) -> None:
        """Checked remote WRITE of one little-endian 64-bit word: the
        same check and bytes as :meth:`remote_write` of its 8 bytes."""
        self._check(rkey, addr, 8, "remote_write")
        self.backing.write_u64(addr, value)

    def remote_fetch_add(self, rkey: int, addr: int, delta: int) -> int:
        """Checked remote fetch-and-add on an aligned 64-bit word.

        Returns the value *before* the add (verbs semantics); arithmetic
        wraps modulo 2**64 like the hardware's.
        """
        self._check_atomic(rkey, addr)
        old = self.backing.read_u64(addr)
        self.backing.write_u64(addr, (old + delta) & 0xFFFFFFFFFFFFFFFF)
        return old

    def remote_compare_swap(
        self, rkey: int, addr: int, compare: int, swap: int
    ) -> int:
        """Checked remote compare-and-swap; returns the prior value."""
        self._check_atomic(rkey, addr)
        old = self.backing.read_u64(addr)
        if old == compare & 0xFFFFFFFFFFFFFFFF:
            self.backing.write_u64(addr, swap)
        return old

    def _check_atomic(self, rkey: int, addr: int) -> None:
        if addr % 8 != 0:
            raise MemoryAccessError(f"atomic target {addr:#x} not 8-byte aligned")
        self._check(rkey, addr, 8, "remote_atomic")
