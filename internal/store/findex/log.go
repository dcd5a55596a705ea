package findex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/findings"
)

// The log is the magic followed by one frame per appended run:
//
//	u32 n         body length
//	u32 lencrc    CRC-32C of the four n bytes
//	u32 crc       CRC-32C of the body
//	body          u32 hlen | compact run header (hlen bytes) | run JSON
//
// All integers are little-endian. The length carries its own checksum, so
// a damaged length is reported as corruption instead of being read as a
// frame running past the end of the file (a torn tail). The header holds
// the run table's fields, so Open never decodes the JSON:
//
//	repo | uvarint seq | varint time | u8 flags (1 = has score)
//	| f64 score | varint total | varint max severity
//	| uvarint ncwe × (uvarint cwe, varint count)
//	| uvarint nfiles × file | uvarint index of the first file (nfiles > 0)
//
// where every string is a uvarint length and its bytes.
const (
	logMagic    = "FXLOG\x00\x01\n"
	framePrefix = 12
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a log Open refuses: a foreign file or a damaged frame
// that is not the last one.
var errCorrupt = errors.New("corrupt findings log")

// appendFrame appends r's frame, carrying the run JSON data, to b.
func appendFrame(b []byte, r *row, data []byte) []byte {
	start := len(b)
	b = append(b, make([]byte, framePrefix+4)...)
	b = appendHeader(b, r)
	binary.LittleEndian.PutUint32(b[start+framePrefix:], uint32(len(b)-start-framePrefix-4))
	b = append(b, data...)
	body := b[start+framePrefix:]
	p := b[start : start+framePrefix]
	binary.LittleEndian.PutUint32(p[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(p[4:], crc32.Checksum(p[0:4], castagnoli))
	binary.LittleEndian.PutUint32(p[8:], crc32.Checksum(body, castagnoli))
	return b
}

// checkPrefix validates a frame prefix and returns the body length and CRC.
func checkPrefix(p []byte) (n int64, crc uint32, err error) {
	if binary.LittleEndian.Uint32(p[4:]) != crc32.Checksum(p[0:4], castagnoli) {
		return 0, 0, fmt.Errorf("%w: frame length fails its checksum", errCorrupt)
	}
	return int64(binary.LittleEndian.Uint32(p[0:])), binary.LittleEndian.Uint32(p[8:]), nil
}

// splitBody returns the header and JSON parts of a frame body.
func splitBody(body []byte) (header, data []byte, err error) {
	if len(body) < 4 || uint64(binary.LittleEndian.Uint32(body)) > uint64(len(body)-4) {
		return nil, nil, fmt.Errorf("%w: bad header length", errCorrupt)
	}
	hlen := 4 + int(binary.LittleEndian.Uint32(body))
	return body[4:hlen], body[hlen:], nil
}

// frameJSON checks a whole frame read back from the log and returns its
// run JSON.
func frameJSON(frame []byte) ([]byte, error) {
	if len(frame) < framePrefix {
		return nil, fmt.Errorf("%w: short frame", errCorrupt)
	}
	n, crc, err := checkPrefix(frame)
	if err != nil {
		return nil, err
	}
	body := frame[framePrefix:]
	if int64(len(body)) != n || crc32.Checksum(body, castagnoli) != crc {
		return nil, fmt.Errorf("%w: frame fails its checksum", errCorrupt)
	}
	_, data, err := splitBody(body)
	return data, err
}

// load scans the log into the run table and returns the offset appends
// continue at. A fresh file gets the magic; a torn last frame is truncated.
func (s *Store) load() (int64, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	magic := make([]byte, len(logMagic))
	k, err := io.ReadFull(s.f, magic)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, err
	}
	if !bytes.HasPrefix([]byte(logMagic), magic[:k]) {
		return 0, fmt.Errorf("%w: not a findings log", errCorrupt)
	}
	if k < len(logMagic) {
		// Empty, or torn while being created: no run was ever acknowledged.
		if _, err := s.f.WriteAt([]byte(logMagic), 0); err != nil {
			return 0, err
		}
		return int64(len(logMagic)), s.f.Sync()
	}
	off := int64(len(logMagic))
	rd := bufio.NewReaderSize(s.f, 1<<20)
	prefix := make([]byte, framePrefix)
	var body []byte
	for off < size {
		if size-off < framePrefix {
			break // torn inside the prefix
		}
		if _, err := io.ReadFull(rd, prefix); err != nil {
			return 0, err
		}
		n, crc, err := checkPrefix(prefix)
		if err != nil {
			return 0, fmt.Errorf("at offset %d: %w", off, err)
		}
		end := off + framePrefix + n
		if end > size {
			break // torn inside the body
		}
		if int64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(rd, body); err != nil {
			return 0, err
		}
		if crc32.Checksum(body, castagnoli) != crc {
			if end == size {
				break // a torn last frame
			}
			return 0, fmt.Errorf("%w: frame at offset %d fails its checksum", errCorrupt, off)
		}
		r, err := decodeFrameHeader(body)
		if err != nil {
			return 0, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		if r.seq != uint64(len(s.t.byRepo[r.repo]))+1 {
			return 0, fmt.Errorf("%w: frame at offset %d has run %s/%d out of sequence", errCorrupt, off, r.repo, r.seq)
		}
		r.off, r.n = off, framePrefix+n
		s.t.add(r)
		off = end
	}
	if off < size {
		// Cut the torn tail, durably, before any append lands after it.
		if err := s.f.Truncate(off); err != nil {
			return 0, err
		}
		return off, s.f.Sync()
	}
	return off, nil
}

func decodeFrameHeader(body []byte) (*row, error) {
	h, _, err := splitBody(body)
	if err != nil {
		return nil, err
	}
	d := decoder{b: h}
	r := &row{repo: d.str(), seq: d.uvarint(), time: d.varint()}
	flags := d.bytes(1)
	if len(flags) == 1 {
		r.hasScore = flags[0]&1 != 0
	}
	if b := d.bytes(8); len(b) == 8 {
		r.score = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	r.total = int(d.varint())
	r.maxSev = findings.Severity(d.varint())
	for i, n := 0, d.count(); i < n; i++ {
		r.cwes = append(r.cwes, cweCount{uint32(d.uvarint()), int(d.varint())})
	}
	for i, n := 0, d.count(); i < n; i++ {
		r.files = append(r.files, d.str())
	}
	if len(r.files) > 0 {
		if i := d.uvarint(); i < uint64(len(r.files)) {
			r.first = r.files[i]
		} else {
			d.fail()
		}
	}
	if d.err || len(d.b) != 0 {
		return nil, fmt.Errorf("%w: malformed run header", errCorrupt)
	}
	return r, nil
}

func appendHeader(b []byte, r *row) []byte {
	b = appendString(b, r.repo)
	b = binary.AppendUvarint(b, r.seq)
	b = binary.AppendVarint(b, r.time)
	var flags byte
	if r.hasScore {
		flags = 1
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.score))
	b = binary.AppendVarint(b, int64(r.total))
	b = binary.AppendVarint(b, int64(r.maxSev))
	b = binary.AppendUvarint(b, uint64(len(r.cwes)))
	for _, c := range r.cwes {
		b = binary.AppendUvarint(b, uint64(c.id))
		b = binary.AppendVarint(b, int64(c.count))
	}
	b = binary.AppendUvarint(b, uint64(len(r.files)))
	first := 0
	for i, f := range r.files {
		b = appendString(b, f)
		if f == r.first {
			first = i
		}
	}
	if len(r.files) > 0 {
		b = binary.AppendUvarint(b, uint64(first))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder reads a run header; any short or malformed field sets err and
// yields zero values from then on.
type decoder struct {
	b   []byte
	err bool
}

func (d *decoder) fail() { d.err, d.b = true, nil }

func (d *decoder) uvarint() uint64 {
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *decoder) varint() int64 {
	v, k := binary.Varint(d.b)
	if k <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *decoder) bytes(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes(d.uvarint())) }

// count reads a list length, bounded by the bytes left (every element
// takes at least one).
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}
