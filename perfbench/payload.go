package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"znscache/internal/sim"
)

// Values are self-verifying: a 16-byte header carries the FNV-64a hash of
// the key, the value's total length and the CRC-32C of the body that
// follows. A hit is correct when all three match; a value stored under
// another key, cut short, or mixed from two writes fails the check.
const valueHeader = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errWrongKey = errors.New("value belongs to another key")
	errTorn     = errors.New("value length or checksum mismatch")
)

// valueMaker builds self-verifying values from a seeded byte pool.
type valueMaker struct {
	pool []byte
	buf  []byte
	ver  uint64
}

// maxValue bounds every value a workload generates.
const maxValue = 16 << 10

func newValueMaker(seed uint64) *valueMaker {
	pool := make([]byte, 64<<10+maxValue)
	sim.NewRand(seed ^ 0x5eed).Bytes(pool)
	return &valueMaker{pool: pool, buf: make([]byte, flagsPrefix+maxValue)}
}

// keyHash is FNV-64a over the key bytes.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// flagsPrefix is the server's storage format: a value stored through
// server.Backend carries the memcached client flags as a 4-byte prefix.
const flagsPrefix = 4

// make returns an n-byte value for key. The slice is reused by the next
// call; callers that hand it to something retaining it must copy.
func (m *valueMaker) make(key string, n int) []byte {
	n = max(min(n, maxValue), valueHeader)
	h := keyHash(key)
	m.ver++
	off := int((h ^ m.ver*0x9e3779b97f4a7c15) % uint64(len(m.pool)-n))
	v := m.buf[flagsPrefix : flagsPrefix+n]
	copy(v[valueHeader:], m.pool[off:off+n-valueHeader])
	binary.LittleEndian.PutUint64(v[0:], h)
	binary.LittleEndian.PutUint32(v[8:], uint32(n))
	binary.LittleEndian.PutUint32(v[12:], crc32.Checksum(v[valueHeader:], castagnoli))
	return v
}

// stored returns make's value as the server stores it: behind a zero
// flags prefix, so a value written straight into the engine is served back
// over the protocol unchanged.
func (m *valueMaker) stored(key string, n int) []byte {
	v := m.make(key, n)
	clear(m.buf[:flagsPrefix])
	return m.buf[:flagsPrefix+len(v)]
}

// checkStored verifies a value read straight from the engine.
func checkStored(key string, v []byte) error {
	if len(v) < flagsPrefix {
		return errTorn
	}
	return checkValue(key, v[flagsPrefix:])
}

// checkValue verifies a value read back for key.
func checkValue(key string, v []byte) error {
	if len(v) < valueHeader {
		return errTorn
	}
	if binary.LittleEndian.Uint64(v[0:]) != keyHash(key) {
		return errWrongKey
	}
	if int(binary.LittleEndian.Uint32(v[8:])) != len(v) ||
		binary.LittleEndian.Uint32(v[12:]) != crc32.Checksum(v[valueHeader:], castagnoli) {
		return errTorn
	}
	return nil
}
