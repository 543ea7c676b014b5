package main

import (
	"bytes"
	"testing"
)

func TestKVModelGetSeesLastPut(t *testing.T) {
	m := newKVModel(1)
	initial := append([]byte(nil), m.value(3)...)
	v1 := bytes.Repeat([]byte{1}, kvValLen)
	v2 := bytes.Repeat([]byte{2}, kvValLen)
	reqs := []kvReq{
		{key: 3}, // before any PUT: the seeded value
		{put: true, key: 3, val: v1},
		{key: 3}, // same batch, after the PUT
		{put: true, key: 3, val: v2},
		{key: 5}, // an untouched key
	}
	got := [][]byte{initial, nil, v1, nil, m.value(5)}
	if err := m.apply(reqs, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.value(3), v2) {
		t.Fatalf("model holds %x for key 3, want the last PUT", m.value(3))
	}
	// A later batch must see the last PUT, not the first.
	if err := m.apply([]kvReq{{key: 3}}, [][]byte{v1}); err == nil {
		t.Fatal("a stale GET passed the check")
	}
	if err := m.apply([]kvReq{{key: 3}}, [][]byte{v2}); err != nil {
		t.Fatal(err)
	}
}

func TestKVModelSeeded(t *testing.T) {
	a, b, c := newKVModel(9), newKVModel(9), newKVModel(10)
	if !bytes.Equal(a.data, b.data) {
		t.Fatal("same seed, different initial store")
	}
	if bytes.Equal(a.data, c.data) {
		t.Fatal("different seeds, same initial store")
	}
}

func TestKVGenDeterministic(t *testing.T) {
	snapshot := func(g *kvGen, op int) []kvReq {
		var out []kvReq
		for _, r := range g.batch(op) {
			r.val = append([]byte(nil), r.val...)
			out = append(out, r)
		}
		return out
	}
	g1, g2 := newKVGen(4), newKVGen(4)
	a := snapshot(g1, 12)
	snapshot(g1, 13)
	b := snapshot(g2, 12)
	puts := 0
	for i := range a {
		if a[i].put != b[i].put || a[i].key != b[i].key || (a[i].put && !bytes.Equal(a[i].val, b[i].val)) {
			t.Fatalf("request %d differs between generators: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].key < 0 || a[i].key >= kvKeys {
			t.Fatalf("key %d out of range", a[i].key)
		}
		if a[i].put {
			puts++
		}
	}
	if puts == 0 || puts == len(a) {
		t.Fatalf("%d PUTs of %d requests: want a mix", puts, len(a))
	}
}
