// Package memsys holds the shared memory-system framework: the simulated
// system configuration (the paper's Table 4.1), the memory-operation and
// data-region model that workloads emit, the network-traffic recorder with
// the paper's load/store/writeback/overhead categories and deferred
// per-word Used/Waste attribution, and the execution-time breakdown of
// Figure 5.2. Protocol engines (internal/mesi, internal/denovo) and the
// driver (internal/core) both build on this package.
package memsys

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bloom"
	"repro/internal/dram"
	"repro/internal/mesh"
)

// Word and line geometry shared by the whole simulator.
const (
	WordBytes    = 4
	LineBytes    = 64
	WordsPerLine = LineBytes / WordBytes
	LineShift    = 6
)

// LineOf returns the line address (byte address >> LineShift) of addr.
func LineOf(addr uint32) uint32 { return addr >> LineShift }

// WordIndex returns the word offset of addr within its line.
func WordIndex(addr uint32) int { return int(addr>>2) & (WordsPerLine - 1) }

// WordAddr returns the word-aligned byte address.
func WordAddr(addr uint32) uint32 { return addr &^ 3 }

// AddrOf reconstructs a byte address from a line address and word index.
func AddrOf(line uint32, word int) uint32 { return line<<LineShift | uint32(word)<<2 }

// Config is the simulated system of Table 4.1 plus protocol-level knobs
// from §4.2 and §4.4.
type Config struct {
	Tiles      int // cores / L1s / L2 slices
	MeshWidth  int
	MeshHeight int
	// Topology selects the NoC geometry: "mesh" (the paper's XY-routed
	// grid, the default), "ring" (bidirectional, the tiles linearized
	// into one cycle), or "torus" (mesh plus wraparound links). Route
	// lengths — and therefore all flit-hop telemetry — follow it.
	Topology string
	// Router selects the fabric's forwarding model: "ideal" (the paper's
	// injection-time link reservation, the default), "vc" (a
	// cycle-level wormhole router with per-port input VCs, credit-based
	// flow control and round-robin allocation), or "deflection" (a
	// cycle-level bufferless router that misroutes on contention instead
	// of buffering, reporting the detours as NetStats.DeflectedHops).
	// Packet latencies — and therefore the congestion telemetry — follow
	// it; minimal flit-hop traffic accounting is identical under all.
	Router string
	// VCs is the vc router's virtual-channel count per input port
	// (0 = default 2). It must be even and at least 2: the dateline
	// deadlock-avoidance scheme splits the VCs into two equal classes, so
	// an odd count would silently give class 0 fewer buffers and skew
	// both fairness and the torus deadlock margin. Validate rejects odd
	// values rather than letting that imbalance happen, and counts above
	// mesh.MaxVCs, which the router's credit records cannot index.
	VCs int
	// VCDepth is the vc router's flit buffer depth per VC (0 = default 4).
	VCDepth int

	L1Bytes int // private L1 data cache per tile
	L1Assoc int

	L2SliceBytes int // shared L2 slice per tile
	L2Assoc      int

	LinkLatency  int64 // cycles per mesh hop
	MaxDataFlits int   // data flits per packet (4 => 64B max data)

	L1Latency int64 // L1 access latency
	L2Latency int64 // L2 slice access latency
	MCLatency int64 // memory-controller processing latency

	StoreBufferEntries  int   // non-blocking writes per core (MESI + DeNovo)
	WriteCombineEntries int   // DeNovo write-combining table entries
	WriteCombineTimeout int64 // cycles before a pending registration flushes

	RetryBackoff int64 // cycles an L1 waits before retrying a NACKed request

	MCTiles []int // tiles hosting memory controllers (corner tiles)
	DRAM    dram.Config

	Bloom bloom.BankConfig // L2 request-bypass filter geometry (§4.4)
}

// CornerTiles returns the memory-controller placement for a width x height
// grid: the four corner tiles, deduplicated in row-major order for
// degenerate shapes (a 1-wide or 1-tall grid has fewer distinct corners,
// and a 1x1 grid exactly one). This is the generalization of the paper's
// {0, 3, 12, 15} on the 4x4 mesh; the ring linearizes the same tiles, so
// the corner indexes stay valid on every topology.
func CornerTiles(width, height int) []int {
	corners := []int{0, width - 1, (height - 1) * width, height*width - 1}
	out := corners[:0]
	for _, c := range corners {
		dup := false
		for _, prev := range out {
			if prev == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// ParseMeshDims parses a "WxH" mesh-dimension string ("4x4", "8x8",
// "16x16") into its width and height. Degenerate shapes fail loudly:
// missing parts ("3x"), non-integers, and non-positive dimensions ("0x4")
// are errors, and so is a single-tile 1x1 grid (no second tile to talk
// to — every NoC quantity would be degenerate).
func ParseMeshDims(s string) (width, height int, err error) {
	parts := strings.Split(strings.TrimSpace(s), "x")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %q are not WxH (e.g. 4x4, 8x8)", s)
	}
	w, werr := strconv.Atoi(strings.TrimSpace(parts[0]))
	h, herr := strconv.Atoi(strings.TrimSpace(parts[1]))
	if werr != nil || herr != nil {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %q are not WxH with integer parts", s)
	}
	if w < 1 || h < 1 {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %dx%d: both must be >= 1", w, h)
	}
	if w*h < 2 {
		return 0, 0, fmt.Errorf("memsys: mesh dimensions %dx%d: a 1-tile network has no links; use at least 2 tiles", w, h)
	}
	return w, h, nil
}

// FormatMeshDims renders mesh dimensions in the canonical "WxH" spelling.
func FormatMeshDims(width, height int) string {
	return fmt.Sprintf("%dx%d", width, height)
}

// WithMesh returns a copy of c re-dimensioned to a width x height grid:
// Tiles, the corner memory-controller placement, and the Bloom bank
// geometry (one bank per L2 slice) all follow the dimensions. Per-tile
// cache and link parameters are unchanged — scaling the fabric scales the
// aggregate capacity with it, as a real tiled CMP would.
func (c Config) WithMesh(width, height int) Config {
	c.MeshWidth, c.MeshHeight = width, height
	c.Tiles = width * height
	c.MCTiles = CornerTiles(width, height)
	c.Bloom = bloom.DefaultBankConfig(c.Tiles)
	return c
}

// Default returns the paper's simulated system (Table 4.1): 16 tiles, 2 GHz
// in-order cores, 32 KB 8-way L1s, 256 KB 16-way L2 slices (4 MB total),
// 4x4 mesh with 16-byte links and 3-cycle link latency, packets of at most
// one control flit and four data flits, corner-tile memory controllers with
// single-channel DDR3-1066 DIMMs.
func Default() Config {
	return Config{
		Tiles:      16,
		MeshWidth:  4,
		MeshHeight: 4,
		Topology:   "mesh",
		Router:     "ideal",

		L1Bytes: 32 * 1024,
		L1Assoc: 8,

		L2SliceBytes: 256 * 1024,
		L2Assoc:      16,

		LinkLatency:  3,
		MaxDataFlits: 4,

		L1Latency: 2,
		L2Latency: 10,
		MCLatency: 6,

		StoreBufferEntries:  32,
		WriteCombineEntries: 32,
		WriteCombineTimeout: 10000,

		RetryBackoff: 24,

		MCTiles: CornerTiles(4, 4),
		DRAM:    dram.DefaultConfig(),
		Bloom:   bloom.DefaultBankConfig(16),
	}
}

// Scaled returns a copy of c with cache capacities divided by div. Input
// sizes are scaled by the same factor in the experiment harness so that
// working-set-to-capacity ratios — which determine reuse, bypass benefit
// and eviction waste — match the paper's. Associativities, the mesh, and
// DRAM timing are unchanged.
func (c Config) Scaled(div int) Config {
	if div <= 1 {
		return c
	}
	c.L1Bytes /= div
	c.L2SliceBytes /= div
	if c.L1Bytes < c.L1Assoc*LineBytes {
		c.L1Bytes = c.L1Assoc * LineBytes
	}
	if c.L2SliceBytes < c.L2Assoc*LineBytes {
		c.L2SliceBytes = c.L2Assoc * LineBytes
	}
	return c
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Tiles != c.MeshWidth*c.MeshHeight {
		return fmt.Errorf("memsys: tiles %d != mesh %dx%d", c.Tiles, c.MeshWidth, c.MeshHeight)
	}
	if _, err := mesh.NewTopology(c.Topology, c.MeshWidth, c.MeshHeight); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	if err := mesh.ValidRouter(c.Router); err != nil {
		return fmt.Errorf("memsys: %w", err)
	}
	if c.VCs != 0 && (c.VCs < 2 || c.VCs%2 != 0) {
		return fmt.Errorf("memsys: VCs = %d; the dateline split needs an even count >= 2", c.VCs)
	}
	if c.VCs > mesh.MaxVCs {
		return fmt.Errorf("memsys: VCs = %d exceeds the vc router's limit of %d (credit returns index VCs in 16 bits)", c.VCs, mesh.MaxVCs)
	}
	if c.VCDepth < 0 {
		return fmt.Errorf("memsys: VCDepth = %d must not be negative", c.VCDepth)
	}
	if len(c.MCTiles) == 0 {
		return fmt.Errorf("memsys: no memory controllers")
	}
	// The memory-controller placement must track the mesh dimensions: the
	// hardcoded 4x4 corners {0, 3, 12, 15} silently land on interior (or
	// out-of-range) tiles of any other grid, skewing every to-MC route
	// length. Each MC tile must be in range and a corner of this grid —
	// configs that re-dimension the mesh go through WithMesh, which keeps
	// the placement in sync.
	corners := CornerTiles(c.MeshWidth, c.MeshHeight)
	for _, t := range c.MCTiles {
		if t < 0 || t >= c.Tiles {
			return fmt.Errorf("memsys: MC tile %d out of range for %d tiles", t, c.Tiles)
		}
		isCorner := false
		for _, corner := range corners {
			if t == corner {
				isCorner = true
				break
			}
		}
		if !isCorner {
			return fmt.Errorf("memsys: MC tile %d is not a corner of the %dx%d mesh (corners: %v); use WithMesh to re-dimension",
				t, c.MeshWidth, c.MeshHeight, corners)
		}
	}
	if c.MaxDataFlits <= 0 {
		return fmt.Errorf("memsys: MaxDataFlits must be positive")
	}
	return nil
}

// HomeTile returns the L2 slice (tile) that owns a line address: lines are
// interleaved across slices.
func (c Config) HomeTile(line uint32) int { return int(line) % c.Tiles }

// Channel returns the memory-channel index for a line address. A different
// bit range than HomeTile is used so slice and channel interleaving are
// decorrelated.
func (c Config) Channel(line uint32) int {
	return int(line>>4) % len(c.MCTiles)
}

// MCTile returns the tile hosting the memory controller for a line.
func (c Config) MCTile(line uint32) int { return c.MCTiles[c.Channel(line)] }

// MaxDataWords is the largest number of words one packet can carry.
func (c Config) MaxDataWords() int { return c.MaxDataFlits * 4 }

// DataFlits returns the number of 16-byte data flits needed for n words.
func DataFlits(words int) int { return (words + 3) / 4 }
