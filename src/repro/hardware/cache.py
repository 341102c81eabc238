"""First-level cache and write-buffer models.

These are *analytic* component models: they account hits, misses, and
stall cycles but do not themselves advance simulated time -- the
processor model charges the returned cycle counts on its own timeline
(folding them into the paper's ``others`` category: cache-miss latency
and write-buffer stall time).  Contention for DRAM by large protocol
transfers is still modeled mechanistically through
:class:`~repro.hardware.memory.MainMemory`; single-line fills use
uncontended DRAM timing, a standard simulator approximation at this
granularity.

The cache is direct-mapped, physically indexed over the simulated shared
address space (word-granular addresses).  Shared pages are
**write-through with allocate**: the paper requires shared writes to
appear on the memory bus so the protocol controller's snoop logic can set
diff bits (section 3.1), so every shared write generates bus traffic and
enters the write buffer regardless of hit/miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.params import MachineParams

__all__ = ["DirectMappedCache", "WriteBuffer", "CacheAccessResult"]


@dataclass
class CacheAccessResult:
    """Outcome of one range access: line hits/misses and fill cycles."""

    hits: int
    misses: int
    fill_cycles: float


class DirectMappedCache:
    """Direct-mapped data cache with 32-byte lines over word addresses.

    Tags are stored in a numpy array indexed by line; ``-1`` marks an
    invalid line.  Addresses are global word indices into the simulated
    shared segment, so distinct pages conflict realistically.
    """

    def __init__(self, params: MachineParams):
        self.params = params
        self.n_lines = params.cache_lines
        self.words_per_line = params.words_per_line
        # Tags live in a plain list: accesses touch only a handful of
        # lines at a time, where scalar list indexing beats numpy's
        # fancy-indexing setup cost by an order of magnitude.
        self._tags = [-1] * self.n_lines
        # Uncontended DRAM time per missing line: one setup plus the
        # line's words (misses are rarely adjacent in time).
        self._fill_per_miss = (params.memory_setup_cycles
                               + self.words_per_line
                               * params.memory_cycles_per_word)
        # Statistics
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def access_range(self, word_addr: int, nwords: int,
                     write: bool = False) -> CacheAccessResult:
        """Touch ``nwords`` consecutive words; returns hit/miss counts.

        Misses allocate the line.  The returned ``fill_cycles`` is the
        uncontended DRAM time for the missing lines, which the processor
        charges as ``others`` stall.
        """
        if nwords <= 0:
            return CacheAccessResult(0, 0, 0.0)
        wpl = self.words_per_line
        first = word_addr // wpl
        last = (word_addr + nwords - 1) // wpl
        tags = self._tags
        n_lines = self.n_lines
        misses = 0
        for line in range(first, last + 1):
            idx = line % n_lines
            if tags[idx] != line:
                misses += 1
                tags[idx] = line
        hits = last - first + 1 - misses
        self.hits += hits
        self.misses += misses
        fill = misses * self._fill_per_miss if misses else 0.0
        return CacheAccessResult(hits, misses, fill)

    def invalidate_range(self, word_addr: int, nwords: int) -> int:
        """Invalidate any cached lines in the range; returns count dropped.

        Used when the protocol (or the controller DMA) writes local memory
        behind the processor's back -- the processor snoops and drops its
        stale copies (paper section 3.1).
        """
        if nwords <= 0:
            return 0
        wpl = self.words_per_line
        first = word_addr // wpl
        last = (word_addr + nwords - 1) // wpl
        tags = self._tags
        n_lines = self.n_lines
        count = 0
        for line in range(first, last + 1):
            idx = line % n_lines
            if tags[idx] == line:
                count += 1
                tags[idx] = -1
        self.invalidations += count
        return count

    def flush(self) -> None:
        self._tags = [-1] * self.n_lines

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class WriteBuffer:
    """A small FIFO absorbing write-through traffic (Table 1: 4 entries).

    Analytic drain model: the buffer issues one word to the memory bus
    every ``memory_cycles_per_word`` cycles; the processor can produce one
    word per cycle.  For a burst of ``nwords`` the processor stalls for
    whatever the buffer cannot absorb::

        stall = max(0, (nwords - entries) * (drain - 1))

    This captures the paper's observation that write-buffer stall time is
    a minor but nonzero ``others`` component, and grows when shared pages
    are written through for snooping.
    """

    def __init__(self, params: MachineParams):
        self.params = params
        self.entries = params.write_buffer_entries
        self.words_written = 0
        self.stall_cycles_total = 0.0

    def write_burst(self, nwords: int) -> float:
        """Account a burst of ``nwords`` write-throughs; returns
        stall cycles."""
        if nwords <= 0:
            return 0.0
        drain = self.params.memory_cycles_per_word
        stall = max(0.0, (nwords - self.entries) * (drain - 1.0))
        self.words_written += nwords
        self.stall_cycles_total += stall
        return stall
