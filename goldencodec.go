package offramps

import (
	"encoding/binary"
	"fmt"
	"math"

	"offramps/internal/capture"
	"offramps/internal/printer"
	"offramps/internal/signal"
	"offramps/internal/sim"
)

// GoldenCodecVersion versions the binary serialization of a golden
// Result in the persistent store (internal/goldenstore). Bump it on ANY
// change to the encoded shape — decode treats every other version as a
// miss, so a bump silently invalidates persisted stores and CI caches
// (which key on it) instead of mis-decoding old bytes.
const GoldenCodecVersion uint32 = 1

// A golden result is the restricted Result shape the cache memoizes:
// trojan-free and detector-free, on any rig (see
// Scenario.goldenCacheable). The codec leans on that: it refuses
// anything carrying detector reports, an abort, or a firmware halt, so
// the encoded form only ever has to cover captures, fingerprints, the
// deposited part, quality, and the thermal/step summaries — and a
// decoded result is bit-identical (reflect.DeepEqual, including
// recording aliasing between the primary and per-side tap views) to the
// fresh run it was encoded from.

// encodable rejects results the golden codec does not cover. The store
// simply skips persisting these; correctness never depends on an entry
// existing.
func goldenEncodable(res *Result) error {
	switch {
	case res == nil:
		return fmt.Errorf("offramps: golden codec: nil result")
	case res.HaltError != nil:
		return fmt.Errorf("offramps: golden codec: result carries a halt error")
	case res.Aborted || res.AbortedAt != 0 || res.TripReason != "":
		return fmt.Errorf("offramps: golden codec: result carries an abort")
	case len(res.Detections) > 0 || res.TrojanLikely:
		return fmt.Errorf("offramps: golden codec: result carries detector reports")
	}
	return nil
}

// tag values for the three capture slots (primary, arduino, ramps).
// Aliasing matters: under a single-side tap the per-side view IS the
// primary recording (same pointer), and a decoded result must preserve
// that identity for bit-exactness.
const (
	slotNil          = 0 // this side is not tapped
	slotInline       = 1 // payload follows
	slotAliasPrimary = 2 // same object as the primary slot
)

// encodeGoldenResult serializes a golden result for the persistent
// store. All integers are little-endian and fixed-width; floats travel
// as IEEE-754 bits, so every value round-trips exactly.
func encodeGoldenResult(res *Result) ([]byte, error) {
	if err := goldenEncodable(res); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 4096)
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	boolByte := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	u32(GoldenCodecVersion)
	boolByte(res.Completed)
	i64(int64(res.Duration))

	f64(res.Quality.TotalFilament)
	i64(int64(res.Quality.LayerCount))
	f64(res.Quality.MaxLayerShift)
	f64(res.Quality.MaxZGap)
	f64(res.Quality.FootprintW)
	f64(res.Quality.FootprintD)

	f64(res.PeakHotendTemp)
	f64(res.PeakBedTemp)
	boolByte(res.HotendExceededSafe)
	f64(res.FanDutyAtEnd)
	f64(res.PeakFanDuty)

	b = append(b, byte(len(res.StepsLost)))
	for _, a := range signal.Axes {
		if v, ok := res.StepsLost[a]; ok {
			b = append(b, byte(a))
			u64(v)
		}
	}

	if res.Part == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		f64(res.Part.LayerQuantum())
		deps := res.Part.Deposits()
		u64(uint64(len(deps)))
		for _, d := range deps {
			f64(d.X)
			f64(d.Y)
			f64(d.Z)
			f64(d.Filament)
		}
	}

	encRec := func(rec, primary *capture.Recording) {
		switch {
		case rec == nil:
			b = append(b, slotNil)
		case rec == primary:
			b = append(b, slotAliasPrimary)
		default:
			b = append(b, slotInline)
			i64(int64(rec.Period))
			i64(int64(rec.StartedAt))
			u64(uint64(len(rec.Transactions)))
			for _, t := range rec.Transactions {
				u32(t.Index)
				u32(uint32(t.X))
				u32(uint32(t.Y))
				u32(uint32(t.Z))
				u32(uint32(t.E))
			}
		}
	}
	encRec(res.Recording, nil) // the primary slot is always inline (or nil)
	encRec(res.ArduinoRecording, res.Recording)
	encRec(res.RAMPSRecording, res.Recording)

	encFp := func(fp, primary *capture.Fingerprint) {
		switch {
		case fp == nil:
			b = append(b, slotNil)
		case fp == primary:
			b = append(b, slotAliasPrimary)
		default:
			b = append(b, slotInline)
			i64(int64(fp.Windows))
			i64(int64(fp.Period))
			i64(int64(fp.StartedAt))
			u64(fp.Digest)
			for _, a := range fp.Axes {
				i64(a.Final)
				i64(a.Min)
				i64(a.Max)
				i64(a.TotalAbsDelta)
			}
		}
	}
	encFp(res.Fingerprint, nil)
	encFp(res.ArduinoFingerprint, res.Fingerprint)
	encFp(res.RAMPSFingerprint, res.Fingerprint)

	return b, nil
}

// goldenDecoder is a bounds-checked little-endian reader; any overrun
// or non-canonical value poisons it, and the caller reports one error
// at the end. That keeps the decode loop linear instead of nested error
// plumbing. Decoding accepts only the bytes encodeGoldenResult writes,
// so a decoded result always re-encodes to its payload.
type goldenDecoder struct {
	b   []byte
	off int
	bad bool
}

func (d *goldenDecoder) take(n int) []byte {
	if d.bad || d.off+n > len(d.b) {
		d.bad = true
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *goldenDecoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *goldenDecoder) i64() int64   { return int64(d.u64()) }
func (d *goldenDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *goldenDecoder) boolByte() bool {
	v := d.byte()
	if v > 1 {
		d.bad = true
	}
	return v == 1
}

func (d *goldenDecoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *goldenDecoder) byte() byte {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// count reads an element count and bounds it by the bytes left, at
// size bytes per element, so a corrupt length prefix cannot allocate
// beyond the input.
func (d *goldenDecoder) count(size int) int {
	n := d.u64()
	if d.bad || n > uint64((len(d.b)-d.off)/size) {
		d.bad = true
		return 0
	}
	return int(n)
}

// decodeGoldenResult inverts encodeGoldenResult. Any malformation —
// truncation, a foreign codec version, an impossible count — is an
// error; the cache maps it to a miss and re-simulates.
func decodeGoldenResult(payload []byte) (*Result, error) {
	d := &goldenDecoder{b: payload}
	if v := d.u32(); v != GoldenCodecVersion {
		return nil, fmt.Errorf("offramps: golden codec: version %d, want %d", v, GoldenCodecVersion)
	}
	res := &Result{}
	res.Completed = d.boolByte()
	res.Duration = sim.Time(d.i64())

	res.Quality.TotalFilament = d.f64()
	res.Quality.LayerCount = int(d.i64())
	res.Quality.MaxLayerShift = d.f64()
	res.Quality.MaxZGap = d.f64()
	res.Quality.FootprintW = d.f64()
	res.Quality.FootprintD = d.f64()

	res.PeakHotendTemp = d.f64()
	res.PeakBedTemp = d.f64()
	res.HotendExceededSafe = d.boolByte()
	res.FanDutyAtEnd = d.f64()
	res.PeakFanDuty = d.f64()

	if n := int(d.byte()); n > 0 {
		if n > len(signal.Axes) {
			return nil, fmt.Errorf("offramps: golden codec: %d step-loss axes", n)
		}
		res.StepsLost = make(map[signal.Axis]uint64, n)
		next := 0 // axes are encoded once each, in signal.Axes order
		for i := 0; i < n && !d.bad; i++ {
			axis := signal.Axis(d.byte())
			for next < len(signal.Axes) && signal.Axes[next] != axis {
				next++
			}
			if next == len(signal.Axes) {
				return nil, fmt.Errorf("offramps: golden codec: step-loss axis %d out of order", axis)
			}
			next++
			res.StepsLost[axis] = d.u64()
		}
	}

	if d.boolByte() {
		quantum := d.f64()
		if quantum <= 0 {
			return nil, fmt.Errorf("offramps: golden codec: layer quantum %v", quantum)
		}
		part := printer.NewPart(quantum)
		n := d.count(32)
		for i := 0; i < n && !d.bad; i++ {
			part.Add(printer.Deposit{X: d.f64(), Y: d.f64(), Z: d.f64(), Filament: d.f64()})
		}
		res.Part = part
	}

	decRec := func(primary *capture.Recording) (*capture.Recording, error) {
		switch tag := d.byte(); tag {
		case slotNil:
			return nil, nil
		case slotAliasPrimary:
			if primary == nil {
				return nil, fmt.Errorf("offramps: golden codec: alias to a nil primary recording")
			}
			return primary, nil
		case slotInline:
			rec := &capture.Recording{
				Period:    sim.Time(d.i64()),
				StartedAt: sim.Time(d.i64()),
			}
			n := d.count(20)
			if n > 0 {
				rec.Transactions = make([]capture.Transaction, n)
				for i := range rec.Transactions {
					rec.Transactions[i] = capture.Transaction{
						Index: d.u32(),
						X:     int32(d.u32()),
						Y:     int32(d.u32()),
						Z:     int32(d.u32()),
						E:     int32(d.u32()),
					}
				}
			}
			return rec, nil
		default:
			return nil, fmt.Errorf("offramps: golden codec: recording tag %d", tag)
		}
	}
	var err error
	if res.Recording, err = decRec(nil); err != nil {
		return nil, err
	}
	if res.ArduinoRecording, err = decRec(res.Recording); err != nil {
		return nil, err
	}
	if res.RAMPSRecording, err = decRec(res.Recording); err != nil {
		return nil, err
	}

	decFp := func(primary *capture.Fingerprint) (*capture.Fingerprint, error) {
		switch tag := d.byte(); tag {
		case slotNil:
			return nil, nil
		case slotAliasPrimary:
			if primary == nil {
				return nil, fmt.Errorf("offramps: golden codec: alias to a nil primary fingerprint")
			}
			return primary, nil
		case slotInline:
			fp := &capture.Fingerprint{
				Windows:   int(d.i64()),
				Period:    sim.Time(d.i64()),
				StartedAt: sim.Time(d.i64()),
				Digest:    d.u64(),
			}
			for i := range fp.Axes {
				fp.Axes[i] = capture.AxisSummary{
					Final:         d.i64(),
					Min:           d.i64(),
					Max:           d.i64(),
					TotalAbsDelta: d.i64(),
				}
			}
			fp.Rehydrate()
			return fp, nil
		default:
			return nil, fmt.Errorf("offramps: golden codec: fingerprint tag %d", tag)
		}
	}
	if res.Fingerprint, err = decFp(nil); err != nil {
		return nil, err
	}
	if res.ArduinoFingerprint, err = decFp(res.Fingerprint); err != nil {
		return nil, err
	}
	if res.RAMPSFingerprint, err = decFp(res.Fingerprint); err != nil {
		return nil, err
	}

	if d.bad {
		return nil, fmt.Errorf("offramps: golden codec: truncated or malformed payload")
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("offramps: golden codec: %d trailing bytes", len(payload)-d.off)
	}
	return res, nil
}
