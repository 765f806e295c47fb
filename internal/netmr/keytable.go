package netmr

import "math/bits"

// keyTable maps a shard's distinct keys to dense ids: linear probing over
// (prefix, length, id) slots. A key of up to 8 bytes is whole in its
// prefix (keyPrefix is injective at a fixed length), so it matches on one
// word and a length; a longer key compares its bytes once both agree.
type keyTable struct {
	slots []keySlot // a power of two, at least minKeySlots
	shift uint      // 64 - log2(len(slots)): a hash's top bits index
	n     int       // keys held
}

type keySlot struct {
	prefix uint64 // keyPrefix(key)
	lenp1  uint32 // len(key)+1; 0: empty
	id     uint32
}

// slotsPerKey keeps the load under 1/4. At 1/2, wc-lowcard's words sit
// 0.41 slots from home on average (0.17 at 1/4), and the mispredicted
// probe branch cost its map task what the table saves over a Go map.
const minKeySlots, slotsPerKey = 64, 4

// slotHash is the hash whose top bits are k's home slot, prefix its
// keyPrefix. A longer key takes the full-key hash: placed by its prefix,
// every key behind a shared one (URLs, "user:0000…") would share a home.
func slotHash(k string, prefix uint64) uint64 {
	if len(k) > 8 {
		return keyHash(k)
	}
	return (prefix ^ uint64(len(k))) * 0x9e3779b97f4a7c15
}

// id returns k's id and whether k is new, in which case it is appended
// to *keys (id → key, what keys longer than 8 bytes compare against).
func (t *keyTable) id(k string, keys *[]string) (id int, added bool) {
	p, l, slots := keyPrefix(k), uint32(len(k)+1), t.slots
	for i := int(slotHash(k, p) >> t.shift); ; i = (i + 1) & (len(slots) - 1) {
		s := &slots[i]
		if s.lenp1 == 0 {
			id, *keys = len(*keys), append(*keys, k)
			*s = keySlot{prefix: p, lenp1: l, id: uint32(id)}
			if t.n++; slotsPerKey*t.n >= len(slots) {
				t.grow(*keys)
			}
			return id, true
		}
		if s.prefix == p && s.lenp1 == l && (len(k) <= 8 || (*keys)[s.id] == k) {
			return int(s.id), false
		}
	}
}

// grow doubles the table, re-placing the keys it holds.
func (t *keyTable) grow(keys []string) {
	old := t.slots
	t.alloc(2 * len(old))
	for _, s := range old {
		if s.lenp1 != 0 {
			i := int(slotHash(keys[s.id], s.prefix) >> t.shift)
			for t.slots[i].lenp1 != 0 {
				i = (i + 1) & (len(t.slots) - 1)
			}
			t.slots[i] = s
		}
	}
}

// reset empties the table at the size the shard it held needed, so one
// huge shard does not leave every later reset clearing its table.
func (t *keyTable) reset() {
	if size := max(minKeySlots, 1<<bits.Len(uint(slotsPerKey*t.n))); size != len(t.slots) {
		t.alloc(size)
	} else {
		clear(t.slots)
	}
	t.n = 0
}

func (t *keyTable) alloc(size int) {
	t.slots = make([]keySlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}
