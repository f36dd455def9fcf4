// Package codec implements the self-describing binary encoding used for
// checkpoint payloads: primitive framing, tensor encoding, CRC-32C integrity
// frames, and gzip compression helpers.
//
// The encoding plays the role that cloudpickle serialization plays in the
// paper's Flor (§5.1): it is the dominant cost of materialization, so the
// background-materialization machinery is designed around moving calls to
// this package off the training thread.
package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"flor.dev/flor/internal/tensor"
)

// hostLittleEndian reports whether float64 slices already have the wire
// byte order in memory, enabling the memcpy fast paths below. The wire
// format is little-endian regardless; big-endian hosts take the per-element
// loop.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ErrCorrupt is returned when an integrity check fails during decoding.
var ErrCorrupt = errors.New("codec: corrupt data")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer accumulates an encoded byte stream in memory.
type Writer struct {
	buf bytes.Buffer
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded stream.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

// Len returns the current encoded length.
func (w *Writer) Len() int { return w.buf.Len() }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.buf.Write(tmp[:n])
}

// Int appends a signed integer as a zig-zag varint.
func (w *Writer) Int(v int) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], int64(v))
	w.buf.Write(tmp[:n])
}

// Float64 appends an IEEE-754 little-endian float.
func (w *Writer) Float64(v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	w.buf.Write(tmp[:])
}

// Bool appends a single byte 0/1.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// RawBytes appends a length-prefixed byte slice.
func (w *Writer) RawBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf.Write(b)
}

// RawAppend appends bytes verbatim, with no length prefix; used to splice
// pre-encoded payloads into a stream whose framing is managed by the caller.
func (w *Writer) RawAppend(b []byte) {
	w.buf.Write(b)
}

// Tensor appends a shape-prefixed dense tensor.
func (w *Writer) Tensor(t *tensor.Tensor) {
	w.shape(t.Shape())
	data := t.Data()
	if len(data) == 0 {
		return
	}
	// Bulk-encode the float payload in one contiguous write: serialization
	// is the record phase's hottest path (the paper's dominant
	// materialization cost), so on little-endian hosts the float block is
	// written straight from memory — IEEE-754 little-endian is both the
	// in-memory and the wire representation.
	if hostLittleEndian {
		w.buf.Write(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data)))
		return
	}
	block := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(block[8*i:], math.Float64bits(v))
	}
	w.buf.Write(block)
}

// TensorView re-emits a wire view verbatim: byte-identical to Tensor of the
// tensor the view was read from.
func (w *Writer) TensorView(v TensorView) {
	w.shape(v.Shape)
	w.buf.Write(v.Raw)
}

func (w *Writer) shape(shape []int) {
	w.Uvarint(uint64(len(shape)))
	for _, d := range shape {
		w.Uvarint(uint64(d))
	}
}

// IntSlice appends a length-prefixed slice of signed ints.
func (w *Writer) IntSlice(s []int) {
	w.Uvarint(uint64(len(s)))
	for _, v := range s {
		w.Int(v)
	}
}

// Reader decodes a byte stream produced by Writer.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps an encoded stream.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return v, nil
}

// Int reads a zig-zag varint.
func (r *Reader) Int() (int, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, r.off)
	}
	r.off += n
	return int(v), nil
}

// Float64 reads an IEEE-754 float.
func (r *Reader) Float64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated float at offset %d", ErrCorrupt, r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() (bool, error) {
	if r.Remaining() < 1 {
		return false, fmt.Errorf("%w: truncated bool at offset %d", ErrCorrupt, r.off)
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		return false, fmt.Errorf("%w: bool byte 0x%02x at offset %d", ErrCorrupt, b, r.off-1)
	}
	return b == 1, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if uint64(r.Remaining()) < n {
		return "", fmt.Errorf("%w: truncated string at offset %d", ErrCorrupt, r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// RawBytes reads a length-prefixed byte slice (copied).
func (r *Reader) RawBytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(r.Remaining()) < n {
		return nil, fmt.Errorf("%w: truncated bytes at offset %d", ErrCorrupt, r.off)
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return b, nil
}

// TensorView is a dense tensor left in wire form: its shape and the raw
// block of 8 little-endian IEEE-754 bytes per element. A view read by
// Reader.TensorView aliases the reader's buffer and stays valid only as long
// as that buffer does. It has two exits: CopyTo copies the block into a live
// tensor the caller already owns — the restore hot path, one copy from the
// fetched bytes to their destination — and Tensor materializes a fresh
// tensor for any other consumer.
type TensorView struct {
	Shape []int
	Raw   []byte
}

// CopyTo copies the view's elements into dst, whose shape must match.
func (v TensorView) CopyTo(dst *tensor.Tensor) error {
	if !slices.Equal(v.Shape, dst.Shape()) {
		return fmt.Errorf("codec: tensor shape mismatch: wire %v, live %v", v.Shape, dst.Shape())
	}
	PutFloats(dst.Data(), v.Raw)
	return nil
}

// Tensor materializes the view as a fresh tensor that aliases nothing.
func (v TensorView) Tensor() *tensor.Tensor {
	t := tensor.New(v.Shape...)
	PutFloats(t.Data(), v.Raw)
	return t
}

// TensorView reads a shape-prefixed dense tensor without materializing it;
// the view's raw block aliases the reader's buffer.
func (r *Reader) TensorView() (TensorView, error) {
	dims, err := r.Uvarint()
	if err != nil {
		return TensorView{}, err
	}
	if dims > 8 {
		return TensorView{}, fmt.Errorf("%w: implausible tensor rank %d", ErrCorrupt, dims)
	}
	shape := make([]int, dims)
	n := 1
	for i := range shape {
		d, err := r.Uvarint()
		if err != nil {
			return TensorView{}, err
		}
		shape[i] = int(d)
		n *= int(d)
	}
	if r.Remaining() < 8*n {
		return TensorView{}, fmt.Errorf("%w: truncated tensor payload at offset %d", ErrCorrupt, r.off)
	}
	raw := r.buf[r.off : r.off+8*n]
	r.off += 8 * n
	return TensorView{Shape: shape, Raw: raw}, nil
}

// PutFloats copies a wire-format float block (8 little-endian bytes per
// element) onto dst, whose length must match the block's element count. On
// little-endian hosts this is a single memcpy into dst's backing array; the
// destination side of the unsafe conversion is always 8-byte aligned, so the
// block itself may sit at any offset (a frame decoded mid-buffer, an mmap'd
// pack page). Big-endian hosts take the per-element loop.
func PutFloats(dst []float64, raw []byte) {
	if len(raw) != 8*len(dst) {
		panic(fmt.Sprintf("codec: PutFloats length mismatch: %d raw bytes onto %d floats", len(raw), len(dst)))
	}
	if len(dst) == 0 {
		return
	}
	if hostLittleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), 8*len(dst)), raw)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

// IntSlice reads a length-prefixed int slice.
func (r *Reader) IntSlice() ([]int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: implausible int slice length %d", ErrCorrupt, n)
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.Int()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Frame wraps payload with a length prefix and a trailing CRC-32C so torn or
// corrupted writes are detected at read time.
func Frame(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+13)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(payload)))
	out = append(out, tmp[:n]...)
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	return append(out, crc[:]...)
}

// Unframe verifies and strips a Frame, returning the payload and the number
// of bytes consumed from b.
func Unframe(b []byte) (payload []byte, consumed int, err error) {
	length, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad frame length", ErrCorrupt)
	}
	total := n + int(length) + 4
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: truncated frame (need %d bytes, have %d)", ErrCorrupt, total, len(b))
	}
	payload = b[n : n+int(length)]
	want := binary.LittleEndian.Uint32(b[n+int(length):])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, fmt.Errorf("%w: frame CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, total, nil
}

// SplitChunks cuts b into consecutive chunks of at most chunkSize bytes.
// The returned slices alias b. A nil or empty input yields no chunks; format
// v2 uses this to cut large tensor payloads into independently encodable
// frames.
func SplitChunks(b []byte, chunkSize int) [][]byte {
	if chunkSize <= 0 || len(b) == 0 {
		if len(b) == 0 {
			return nil
		}
		return [][]byte{b}
	}
	out := make([][]byte, 0, (len(b)+chunkSize-1)/chunkSize)
	for len(b) > chunkSize {
		out = append(out, b[:chunkSize])
		b = b[chunkSize:]
	}
	return append(out, b)
}

// entropySampleLimit bounds how many bytes SampleEntropy inspects; a 64 KiB
// prefix is representative enough to classify a chunk as compressible.
const entropySampleLimit = 64 << 10

// SampleEntropy estimates the Shannon entropy of b in bits per byte from a
// bounded prefix sample. Already-compressed or high-precision numeric data
// scores near 8.0; zero-filled or textual data scores far lower. Format v2's
// style heuristic uses this to skip deflate where it cannot pay for itself.
func SampleEntropy(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	sample := b
	if len(sample) > entropySampleLimit {
		sample = sample[:entropySampleLimit]
	}
	var hist [256]int
	for _, c := range sample {
		hist[c]++
	}
	n := float64(len(sample))
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// Compress gzips b at the default compression level.
func Compress(b []byte) ([]byte, error) {
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(b); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Decompress gunzips b. Any malformed input — a bad header, a stream
// truncated mid-deflate, or a missing/mismatched CRC trailer — surfaces
// ErrCorrupt rather than a silently short payload: the read drains to the
// stream's end so gzip's own digest check always runs before bytes are
// returned.
func Decompress(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%w: gzip header: %v", ErrCorrupt, err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		// io.ReadAll only stops early on a real error: truncation surfaces
		// io.ErrUnexpectedEOF and a drained-but-wrong digest surfaces
		// gzip.ErrChecksum. Either way the bytes cannot be trusted.
		return nil, fmt.Errorf("%w: gzip stream: %v", ErrCorrupt, err)
	}
	return out, nil
}

// CompressedSize returns len(Compress(b)); used for the paper's Table 4
// storage accounting, which reports gzip-compressed checkpoint sizes.
func CompressedSize(b []byte) (int, error) {
	c, err := Compress(b)
	if err != nil {
		return 0, err
	}
	return len(c), nil
}
