package printer

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Deposit is one quantum of extruded material: the filament length pushed
// out by a single extruder microstep, tagged with the nozzle position at
// the moment it happened.
type Deposit struct {
	X, Y, Z  float64 // nozzle position, mm (bed frame)
	Filament float64 // filament length deposited, mm
}

// Part accumulates deposits during a print and reconstructs printed-part
// geometry from them: per-layer extents, centroids, and material totals.
// It is the simulated stand-in for the photographs on graph paper in the
// paper's Table I — instead of eyeballing a shifted print, the experiments
// measure the shift.
type Part struct {
	deposits []Deposit
	// layerQuantum buckets Z values into layers; half a typical layer
	// height tolerates Z jitter without merging adjacent layers.
	layerQuantum float64
}

// NewPart returns an empty part with the given Z bucketing quantum
// (typically the layer height).
func NewPart(layerQuantum float64) *Part {
	if layerQuantum <= 0 {
		layerQuantum = 0.2
	}
	return &Part{layerQuantum: layerQuantum}
}

// Add records a deposit.
func (p *Part) Add(d Deposit) { p.deposits = append(p.deposits, d) }

// Grow makes room for n more deposits, so the next n Adds do not
// reallocate the ledger.
func (p *Part) Grow(n int) { p.deposits = slices.Grow(p.deposits, n) }

// LayerQuantum returns the Z bucketing quantum, so a serialized part can
// be reconstructed with NewPart(LayerQuantum()) + Add and behave
// identically to the original.
func (p *Part) LayerQuantum() float64 { return p.layerQuantum }

// Deposits returns the raw ledger (borrowed, do not modify).
func (p *Part) Deposits() []Deposit { return p.deposits }

// ReclaimDeposits severs the deposit ledger from the part and returns
// it for buffer recycling; the part is left empty. Only call on a part
// nothing will read again.
func (p *Part) ReclaimDeposits() []Deposit {
	d := p.deposits
	p.deposits = nil
	return d
}

// TotalFilament returns the total filament length deposited, mm.
func (p *Part) TotalFilament() float64 {
	sum := 0.0
	for _, d := range p.deposits {
		sum += d.Filament
	}
	return sum
}

// Layer summarizes the material deposited at one Z level.
type Layer struct {
	Z          float64 // representative Z, mm
	Filament   float64 // filament deposited in the layer, mm
	CentroidX  float64 // filament-weighted centroid
	CentroidY  float64
	MinX, MaxX float64
	MinY, MaxY float64
}

// Width returns the layer's X extent.
func (l Layer) Width() float64 { return l.MaxX - l.MinX }

// Depth returns the layer's Y extent.
func (l Layer) Depth() float64 { return l.MaxY - l.MinY }

// Layers groups deposits into Z buckets and summarizes each, sorted by Z.
func (p *Part) Layers() []Layer {
	if len(p.deposits) == 0 {
		return nil
	}
	type acc struct {
		fil, sx, sy            float64
		minX, maxX, minY, maxY float64
		sz                     float64
		n                      int
	}
	buckets := make(map[int64]*acc)
	for _, d := range p.deposits {
		key := int64(math.Round(d.Z / p.layerQuantum))
		a, ok := buckets[key]
		if !ok {
			a = &acc{minX: d.X, maxX: d.X, minY: d.Y, maxY: d.Y}
			buckets[key] = a
		}
		a.fil += d.Filament
		a.sx += d.X * d.Filament
		a.sy += d.Y * d.Filament
		a.sz += d.Z
		a.n++
		a.minX = math.Min(a.minX, d.X)
		a.maxX = math.Max(a.maxX, d.X)
		a.minY = math.Min(a.minY, d.Y)
		a.maxY = math.Max(a.maxY, d.Y)
	}
	keys := make([]int64, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	layers := make([]Layer, 0, len(keys))
	for _, k := range keys {
		a := buckets[k]
		l := Layer{
			Z:        a.sz / float64(a.n),
			Filament: a.fil,
			MinX:     a.minX, MaxX: a.maxX,
			MinY: a.minY, MaxY: a.maxY,
		}
		if a.fil > 0 {
			l.CentroidX = a.sx / a.fil
			l.CentroidY = a.sy / a.fil
		}
		layers = append(layers, l)
	}
	return layers
}

// Quality summarizes the geometric health of a printed part.
type Quality struct {
	TotalFilament float64 // mm of filament deposited
	LayerCount    int
	MaxLayerShift float64 // largest XY centroid jump between consecutive layers, mm
	MaxZGap       float64 // largest Z gap between consecutive layers, mm
	FootprintW    float64 // X extent of the densest layer, mm
	FootprintD    float64 // Y extent of the densest layer, mm
}

// String renders a one-line summary.
func (q Quality) String() string {
	return fmt.Sprintf("%d layers, %.1f mm filament, max layer shift %.3f mm, max Z gap %.3f mm, footprint %.2f×%.2f mm",
		q.LayerCount, q.TotalFilament, q.MaxLayerShift, q.MaxZGap, q.FootprintW, q.FootprintD)
}

// Filter returns a new Part containing only deposits for which keep
// returns true. The Z bucketing quantum is preserved.
func (p *Part) Filter(keep func(Deposit) bool) *Part {
	out := NewPart(p.layerQuantum)
	for _, d := range p.deposits {
		if keep(d) {
			out.Add(d)
		}
	}
	return out
}

// FocusOnPart returns a copy of the part restricted to the region around
// the actual printed object, discarding prime lines and purge blobs. The
// region is inferred from the topmost substantial layer: prime lines live
// only at first-layer height, so the top layer's footprint (grown by a
// margin) bounds the part.
func (p *Part) FocusOnPart(minLayerFilament float64) *Part {
	layers := p.Layers()
	var top *Layer
	for i := range layers {
		if layers[i].Filament >= minLayerFilament {
			top = &layers[i]
		}
	}
	if top == nil {
		return p
	}
	margin := math.Max(top.Width(), top.Depth())*0.75 + 5
	minX, maxX := top.MinX-margin, top.MaxX+margin
	minY, maxY := top.MinY-margin, top.MaxY+margin
	return p.Filter(func(d Deposit) bool {
		return d.X >= minX && d.X <= maxX && d.Y >= minY && d.Y <= maxY
	})
}

// AssessQuality computes the part-quality summary over the part region
// (see FocusOnPart). minLayerFilament excludes skirt/prime slivers:
// layers with less material than the threshold are ignored for shift and
// gap analysis (but still counted).
func (p *Part) AssessQuality(minLayerFilament float64) Quality {
	focused := p.FocusOnPart(minLayerFilament)
	layers := focused.Layers()
	q := Quality{TotalFilament: p.TotalFilament(), LayerCount: len(layers)}
	var solid []Layer
	for _, l := range layers {
		if l.Filament >= minLayerFilament {
			solid = append(solid, l)
		}
	}
	var densest *Layer
	for i := range solid {
		if densest == nil || solid[i].Filament > densest.Filament {
			densest = &solid[i]
		}
	}
	if densest != nil {
		q.FootprintW = densest.Width()
		q.FootprintD = densest.Depth()
	}
	for i := 1; i < len(solid); i++ {
		dx := solid[i].CentroidX - solid[i-1].CentroidX
		dy := solid[i].CentroidY - solid[i-1].CentroidY
		shift := math.Hypot(dx, dy)
		if shift > q.MaxLayerShift {
			q.MaxLayerShift = shift
		}
		gap := solid[i].Z - solid[i-1].Z
		if gap > q.MaxZGap {
			q.MaxZGap = gap
		}
	}
	return q
}

// Diff compares a suspect part against a golden reference, layer by layer.
type Diff struct {
	FilamentRatio    float64 // suspect/golden total filament
	MaxCentroidShift float64 // largest per-layer centroid displacement, mm
	LayerCountDelta  int     // suspect − golden layer counts
}

// String renders a one-line summary.
func (d Diff) String() string {
	return fmt.Sprintf("filament ratio %.3f, max centroid shift %.3f mm, layer count Δ%d",
		d.FilamentRatio, d.MaxCentroidShift, d.LayerCountDelta)
}

// Compare measures how far the part diverged from golden. Layers are
// matched by index after filtering to solid layers (≥ minLayerFilament).
func (p *Part) Compare(golden *Part, minLayerFilament float64) Diff {
	var diff Diff
	gf := golden.TotalFilament()
	if gf > 0 {
		diff.FilamentRatio = p.TotalFilament() / gf
	}
	mine := solidLayers(p.Layers(), minLayerFilament)
	ref := solidLayers(golden.Layers(), minLayerFilament)
	diff.LayerCountDelta = len(mine) - len(ref)
	n := len(mine)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		shift := math.Hypot(mine[i].CentroidX-ref[i].CentroidX, mine[i].CentroidY-ref[i].CentroidY)
		if shift > diff.MaxCentroidShift {
			diff.MaxCentroidShift = shift
		}
	}
	return diff
}

func solidLayers(layers []Layer, minFilament float64) []Layer {
	out := layers[:0:0]
	for _, l := range layers {
		if l.Filament >= minFilament {
			out = append(out, l)
		}
	}
	return out
}
