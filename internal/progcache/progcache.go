// Package progcache is the disk-backed, content-addressed compiled
// program cache. Each entry is one vm.Program plus the compile
// metadata a service response needs (static check count, optimizer
// report), keyed by sha256 over (source, filename, options, engine) —
// the same derivation the in-memory service cache uses, so the two
// layers can never disagree about what a key means.
//
// On-disk envelope (all integers little-endian):
//
//	magic     "NPCH"                      4 bytes
//	version   u16                         cache envelope version
//	meta      u32 length + JSON           cacheMeta (StaticChecks, Opt)
//	payload   u32 length + bytes          progio program stream
//	crc       u32                         CRC-32C over everything above
//
// Writes are atomic: the envelope lands in a temp file in the cache
// directory and is renamed into place, so readers never observe a
// partial entry. Reads verify the checksum before parsing anything, so
// a truncated or bit-flipped file surfaces as a typed error
// (progio.ErrCorrupt / progio.ErrVersion via errors.Is), never as a
// panic or a silently wrong program; callers treat any such error as a
// miss and recompile. A corrupt file is unlinked best-effort so the
// recompile's Put restores a clean entry.
package progcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"nascent"
	"nascent/internal/progio"
	"nascent/internal/vm"
)

// envelopeVersion is the on-disk envelope format version, independent
// of the progio payload version (which the payload carries itself).
const envelopeVersion uint16 = 1

var envelopeMagic = [4]byte{'N', 'P', 'C', 'H'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrMiss reports that a key has no entry on disk. It is the only
// non-corruption failure Get returns.
var ErrMiss = errors.New("progcache: miss")

// Key is the content address of one compiled program.
type Key [sha256.Size]byte

// String renders the key as the entry's file stem.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf computes the content address of one compile request: sha256
// over (source, filename, options, engine) in a canonical
// length-prefixed encoding, so no field boundary ambiguity can alias
// two programs. The service's in-memory cache delegates here — the
// derivation exists exactly once.
func KeyOf(source, filename string, opts nascent.Options, engine nascent.Engine) Key {
	h := sha256.New()
	// buf stages the length prefixes, the strings in chunks and the
	// option bytes, so hashing a request copies none of its source.
	var buf [512]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(s)))
		h.Write(buf[:8])
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	put(source)
	put(filename)
	flags := byte(0)
	if opts.BoundsChecks {
		flags |= 1
	}
	if opts.RotateLoops {
		flags |= 2
	}
	buf[0] = flags
	buf[1] = byte(opts.Scheme)
	buf[2] = byte(opts.Kind)
	buf[3] = byte(opts.Implications)
	buf[4] = byte(engine)
	h.Write(buf[:5])
	var k Key
	h.Sum(k[:0])
	return k
}

// Entry is one cached compile artifact: the program and the metadata a
// compile response reports without re-running the frontend.
type Entry struct {
	Prog         *vm.Program
	StaticChecks int
	Opt          *nascent.OptReport
}

// cacheMeta is the JSON meta block of the envelope.
type cacheMeta struct {
	StaticChecks int                `json:"static_checks"`
	Opt          *nascent.OptReport `json:"opt,omitempty"`
}

// Metrics counts what the cache has done. Corrupt and BadVersion also
// count as Misses — a damaged entry behaves exactly like an absent
// one, plus its own diagnostic counter.
type Metrics struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Corrupt     uint64 `json:"corrupt"`
	BadVersion  uint64 `json:"bad_version"`
	Puts        uint64 `json:"puts"`
	WriteErrors uint64 `json:"write_errors"`
}

// Cache is a disk-backed program cache rooted at one directory. All
// methods are safe for concurrent use; cross-process safety comes from
// the atomic rename on write.
type Cache struct {
	dir string

	mu sync.Mutex
	m  Metrics
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Metrics snapshots the cache counters.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.String()+".npc")
}

// Get loads the entry for k. A missing file returns ErrMiss; a
// damaged or version-skewed file returns the progio typed error (and
// is unlinked best-effort so the caller's recompile can restore it).
// Every failure counts as a miss in the metrics.
func (c *Cache) Get(k Key) (*Entry, error) {
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	data, err := readFile(c.path(k), buf)
	if err != nil {
		c.count(func(m *Metrics) { m.Misses++ })
		if os.IsNotExist(err) {
			return nil, ErrMiss
		}
		return nil, err
	}
	e, err := decodeEnvelope(data)
	if err != nil {
		c.count(func(m *Metrics) {
			m.Misses++
			if errors.Is(err, progio.ErrVersion) {
				m.BadVersion++
			} else {
				m.Corrupt++
			}
		})
		os.Remove(c.path(k)) // best-effort: let the recompile's Put heal it
		return nil, err
	}
	c.count(func(m *Metrics) { m.Hits++ })
	return e, nil
}

// readBufs recycles the buffers Get reads entries into. Nothing
// decoded aliases the buffer (progio and encoding/json copy every
// string and slice out of their input), so it is reusable as soon as
// the entry is decoded.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readFile reads the named file into buf, replacing its contents.
func readFile(name string, buf *bytes.Buffer) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Put writes the entry for k atomically (temp file + rename). Write
// failures are counted and returned but are never fatal to callers —
// the cache is an accelerator, not a source of truth.
func (c *Cache) Put(k Key, e *Entry) error {
	data, err := encodeEnvelope(e)
	if err != nil {
		c.count(func(m *Metrics) { m.WriteErrors++ })
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		c.count(func(m *Metrics) { m.WriteErrors++ })
		return err
	}
	// The temp file is removed only on a failure path: after a
	// successful rename it no longer exists.
	fail := func(err error) error {
		os.Remove(tmp.Name())
		c.count(func(m *Metrics) { m.WriteErrors++ })
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), c.path(k)); err != nil {
		return fail(err)
	}
	c.count(func(m *Metrics) { m.Puts++ })
	return nil
}

func (c *Cache) count(f func(*Metrics)) {
	c.mu.Lock()
	f(&c.m)
	c.mu.Unlock()
}

// encodeEnvelope serializes an entry to its on-disk form.
func encodeEnvelope(e *Entry) ([]byte, error) {
	meta, err := json.Marshal(cacheMeta{StaticChecks: e.StaticChecks, Opt: e.Opt})
	if err != nil {
		return nil, err
	}
	im := e.Prog.Image()
	return appendEnvelope(meta, &im), nil
}

// appendEnvelope lays out an envelope around an encoded meta block and
// a program image. The header, meta and progio payload are written
// straight into one buffer of the envelope's exact size; the payload
// length is patched in once the payload is written.
func appendEnvelope(meta []byte, im *vm.Image) []byte {
	out := make([]byte, 0, len(envelopeMagic)+2+4+len(meta)+4+progio.EncodedSize(im)+4)
	out = append(out, envelopeMagic[:]...)
	out = progio.AppendUint16(out, envelopeVersion)
	out = progio.AppendUint32(out, uint32(len(meta)))
	out = append(out, meta...)
	lenAt := len(out)
	out = progio.AppendUint32(out, 0)
	out = progio.AppendImage(out, im)
	binary.LittleEndian.PutUint32(out[lenAt:], uint32(len(out)-lenAt-4))
	return progio.AppendUint32(out, crc32.Checksum(out, crcTable))
}

func corrupt(reason string) error { return &progio.CorruptError{Reason: "cache envelope: " + reason} }

// decodeEnvelope parses the on-disk form into an Entry. The checksum
// is verified before any structural parse, so arbitrary damage
// surfaces as one uniform typed error.
func decodeEnvelope(data []byte) (*Entry, error) {
	if len(data) < len(envelopeMagic)+2+4 {
		return nil, corrupt("shorter than header")
	}
	if string(data[:4]) != string(envelopeMagic[:]) {
		return nil, corrupt("bad magic")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, corrupt("checksum mismatch")
	}
	rest := body[4:]
	v, rest, _ := progio.ReadUint16(rest)
	if v != envelopeVersion {
		return nil, &progio.VersionError{Got: v}
	}
	metaLen, rest, ok := progio.ReadUint32(rest)
	if !ok || uint64(metaLen) > uint64(len(rest)) {
		return nil, corrupt("meta length out of range")
	}
	metaRaw, rest := rest[:metaLen], rest[metaLen:]
	var meta cacheMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, corrupt("meta: " + err.Error())
	}
	payLen, rest, ok := progio.ReadUint32(rest)
	if !ok || uint64(payLen) != uint64(len(rest)) {
		return nil, corrupt("payload length out of range")
	}
	prog, err := progio.Decode(rest)
	if err != nil {
		return nil, err
	}
	return &Entry{Prog: prog, StaticChecks: meta.StaticChecks, Opt: meta.Opt}, nil
}
