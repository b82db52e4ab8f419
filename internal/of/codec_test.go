package of

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleMatch() Match {
	m := MatchAll()
	m.Wildcards &^= WcDLType | WcNWProto | WcNWTOS
	m.DLType = 0x0800
	m.NWProto = 6
	m.NWTOS = 0x20
	m.SetNWSrcWildBits(0)
	m.NWSrc = [4]byte{10, 0, 0, 1}
	m.SetNWDstWildBits(8)
	m.NWDst = [4]byte{10, 1, 2, 0}
	return m
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", m, err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", m, err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch for %T:\n sent %#v\n got  %#v", m, m, got)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Message{
		&Hello{xid: xid{1}},
		&Error{xid: xid{2}, ErrType: ErrTypeFlowModFailed, Code: 3, Data: []byte{0xde, 0xad}},
		&EchoRequest{xid: xid{3}, Data: []byte("ping")},
		&EchoReply{xid: xid{4}, Data: []byte("pong")},
		&Vendor{xid: xid{5}, VendorID: 0x2320, Data: []byte{1, 2, 3}},
		&FeaturesRequest{xid: xid{6}},
		&FeaturesReply{
			xid: xid{7}, DatapathID: 0xabcdef, NBuffers: 256, NTables: 2,
			Capabilities: 0x77, Actions: 0xfff,
			Ports: []PhyPort{
				{PortNo: 1, HWAddr: EthAddr{1, 2, 3, 4, 5, 6}, Name: "eth1", State: 1},
				{PortNo: 2, HWAddr: EthAddr{1, 2, 3, 4, 5, 7}, Name: "eth2"},
			},
		},
		&GetConfigRequest{xid: xid{8}},
		&GetConfigReply{xid: xid{9}, SwitchConfig: SwitchConfig{Flags: 1, MissSendLen: 128}},
		&SetConfig{xid: xid{10}, SwitchConfig: SwitchConfig{MissSendLen: 0xffff}},
		&PacketIn{xid: xid{11}, BufferID: BufferNone, TotalLen: 60, InPort: 3, Reason: ReasonAction, Data: []byte{9, 9, 9}},
		&FlowRemoved{xid: xid{12}, Match: sampleMatch(), Cookie: 42, Priority: 100,
			Reason: RemDelete, DurationSec: 1, DurationNsec: 5000, IdleTimeout: 10,
			PacketCount: 7, ByteCount: 420},
		&PortStatus{xid: xid{13}, Reason: 2, Desc: PhyPort{PortNo: 4, Name: "p4"}},
		&PacketOut{xid: xid{14}, BufferID: BufferNone, InPort: PortNone,
			Actions: []Action{ActionOutput{Port: 2, MaxLen: 0}},
			Data:    []byte{0xca, 0xfe}},
		&FlowMod{xid: xid{15}, Match: sampleMatch(), Cookie: 77, Command: FCAdd,
			IdleTimeout: 0, HardTimeout: 0, Priority: 500, BufferID: BufferNone,
			OutPort: PortNone, Flags: FFSendFlowRem,
			Actions: []Action{
				ActionSetNWTOS{TOS: 0x40},
				ActionSetVLANVID{VID: 100},
				ActionOutput{Port: 7},
			}},
		&StatsRequest{xid: xid{16}, StatsType: StatsFlow, Flags: 0, Body: (&FlowStatsRequestBody{Match: MatchAll(), OutPort: PortNone}).Marshal()},
		&StatsReply{xid: xid{17}, StatsType: StatsTable, Body: (&TableStatsEntry{TableID: 0, Name: "main", ActiveCount: 12}).Marshal()},
		&BarrierRequest{xid: xid{18}},
		&BarrierReply{xid: xid{19}},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

func TestHeaderFields(t *testing.T) {
	m := &BarrierRequest{}
	m.SetXID(0xdeadbeef)
	buf, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != Version {
		t.Errorf("version byte = %#x, want %#x", buf[0], Version)
	}
	if MsgType(buf[1]) != TypeBarrierRequest {
		t.Errorf("type byte = %d, want %d", buf[1], TypeBarrierRequest)
	}
	if got := binary.BigEndian.Uint16(buf[2:4]); got != HeaderLen {
		t.Errorf("length = %d, want %d", got, HeaderLen)
	}
	if got := binary.BigEndian.Uint32(buf[4:8]); got != 0xdeadbeef {
		t.Errorf("xid = %#x, want 0xdeadbeef", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0, 0}},
		{"bad version", []byte{9, 0, 0, 8, 0, 0, 0, 0}},
		{"length mismatch", []byte{1, 0, 0, 20, 0, 0, 0, 0}},
		{"unknown type", []byte{1, 99, 0, 8, 0, 0, 0, 0}},
		{"truncated flow_mod", append([]byte{1, 14, 0, 12, 0, 0, 0, 0}, 1, 2, 3, 4)},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.data); err == nil {
			t.Errorf("%s: Unmarshal succeeded, want error", tc.name)
		}
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	sent := []Message{
		&Hello{xid: xid{1}},
		&FlowMod{xid: xid{2}, Match: MatchAll(), Command: FCAdd, Priority: 1,
			BufferID: BufferNone, OutPort: PortNone,
			Actions: []Action{ActionOutput{Port: 1}}},
		&BarrierRequest{xid: xid{3}},
	}
	for _, m := range sent {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
	}
	for i, want := range sent {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("ReadMessage #%d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("stream message %d mismatch: %#v vs %#v", i, want, got)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("ReadMessage on empty stream succeeded, want EOF")
	}
}

func TestRUMAckEncoding(t *testing.T) {
	ack := NewRUMAck(0x12345678, RUMAckInstalled)
	ack.SetXID(99)
	got := roundTrip(t, ack).(*Error)
	xidVal, code, ok := got.IsRUMAck()
	if !ok {
		t.Fatal("IsRUMAck = false, want true")
	}
	if xidVal != 0x12345678 {
		t.Errorf("acked xid = %#x, want 0x12345678", xidVal)
	}
	if code != RUMAckInstalled {
		t.Errorf("code = %d, want %d", code, RUMAckInstalled)
	}
	// A normal OpenFlow error must not be mistaken for a RUM ack.
	plain := &Error{ErrType: ErrTypeBadRequest, Code: 1, Data: []byte{0, 0, 0, 5}}
	if _, _, ok := plain.IsRUMAck(); ok {
		t.Error("plain error recognized as RUM ack")
	}
}

// randomMatch builds an arbitrary but valid match from random bits.
func randomMatch(r *rand.Rand) Match {
	var m Match
	m.Wildcards = r.Uint32() & (WcAll | WcNWSrcMask | WcNWDstMask)
	m.InPort = uint16(r.Uint32())
	r.Read(m.DLSrc[:])
	r.Read(m.DLDst[:])
	m.DLVLAN = uint16(r.Uint32())
	m.DLVLANPCP = uint8(r.Uint32() & 7)
	m.DLType = uint16(r.Uint32())
	m.NWTOS = uint8(r.Uint32())
	m.NWProto = uint8(r.Uint32())
	r.Read(m.NWSrc[:])
	r.Read(m.NWDst[:])
	m.TPSrc = uint16(r.Uint32())
	m.TPDst = uint16(r.Uint32())
	return m
}

func TestMatchRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatch(r)
		got, err := UnmarshalMatch(m.Marshal())
		if err != nil {
			return false
		}
		return got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMatch(r).Normalize()
		return m == m.Normalize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeClearsWildcardedFields(t *testing.T) {
	m := MatchAll()
	m.InPort = 5
	m.DLType = 0x0800
	m.TPDst = 80
	m.NWSrc = [4]byte{10, 0, 0, 1}
	n := m.Normalize()
	if n.InPort != 0 || n.DLType != 0 || n.TPDst != 0 || n.NWSrc != [4]byte{} {
		t.Errorf("Normalize left wildcarded values: %+v", n)
	}
	if n != MatchAll().Normalize() {
		t.Errorf("normalized all-wildcard matches differ: %+v vs %+v", n, MatchAll().Normalize())
	}
}

func TestNWWildBitsAccessors(t *testing.T) {
	var m Match
	for _, bits := range []int{0, 1, 8, 16, 31, 32, 40, -3} {
		m.SetNWSrcWildBits(bits)
		want := bits
		if want > 32 {
			want = 32
		}
		if want < 0 {
			want = 0
		}
		if got := m.NWSrcWildBits(); got != want {
			t.Errorf("SetNWSrcWildBits(%d) -> %d, want %d", bits, got, want)
		}
		m.SetNWDstWildBits(bits)
		if got := m.NWDstWildBits(); got != want {
			t.Errorf("SetNWDstWildBits(%d) -> %d, want %d", bits, got, want)
		}
	}
}

func TestActionListRoundTripProperty(t *testing.T) {
	mk := func(r *rand.Rand) []Action {
		n := r.Intn(6)
		acts := make([]Action, 0, n)
		for i := 0; i < n; i++ {
			switch r.Intn(8) {
			case 0:
				acts = append(acts, ActionOutput{Port: uint16(r.Uint32()), MaxLen: uint16(r.Uint32())})
			case 1:
				acts = append(acts, ActionSetVLANVID{VID: uint16(r.Uint32())})
			case 2:
				acts = append(acts, ActionSetVLANPCP{PCP: uint8(r.Uint32() & 7)})
			case 3:
				acts = append(acts, ActionStripVLAN{})
			case 4:
				var a EthAddr
				r.Read(a[:])
				acts = append(acts, ActionSetDLAddr{Dst: r.Intn(2) == 0, Addr: a})
			case 5:
				var a [4]byte
				r.Read(a[:])
				acts = append(acts, ActionSetNWAddr{Dst: r.Intn(2) == 0, Addr: a})
			case 6:
				acts = append(acts, ActionSetNWTOS{TOS: uint8(r.Uint32())})
			case 7:
				acts = append(acts, ActionSetTPPort{Dst: r.Intn(2) == 0, Port: uint16(r.Uint32())})
			}
		}
		return acts
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		acts := mk(r)
		got, err := UnmarshalActions(MarshalActions(acts))
		if err != nil {
			return false
		}
		if len(got) != len(acts) {
			return false
		}
		return ActionsEqual(acts, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestActionsEqual(t *testing.T) {
	a := []Action{ActionOutput{Port: 1}, ActionSetNWTOS{TOS: 4}}
	b := []Action{ActionOutput{Port: 1}, ActionSetNWTOS{TOS: 4}}
	c := []Action{ActionOutput{Port: 2}, ActionSetNWTOS{TOS: 4}}
	if !ActionsEqual(a, b) {
		t.Error("identical lists reported unequal")
	}
	if ActionsEqual(a, c) {
		t.Error("different lists reported equal")
	}
	if ActionsEqual(a, a[:1]) {
		t.Error("different lengths reported equal")
	}
	if !ActionsEqual(nil, nil) {
		t.Error("nil lists should be equal")
	}
}

func TestFlowModClone(t *testing.T) {
	fm := &FlowMod{Match: sampleMatch(), Command: FCAdd, Priority: 10,
		Actions: []Action{ActionOutput{Port: 1}}}
	fm.SetXID(7)
	c := fm.Clone()
	c.Actions[0] = ActionOutput{Port: 9}
	c.Priority = 20
	if fm.Actions[0] != (ActionOutput{Port: 1}) || fm.Priority != 10 {
		t.Errorf("Clone aliases original: %+v", fm)
	}
}

func TestMatchString(t *testing.T) {
	m := MatchAll()
	if got := m.String(); got != "match{*}" {
		t.Errorf("MatchAll().String() = %q", got)
	}
	m = sampleMatch()
	s := m.String()
	for _, want := range []string{"dl_type=0x0800", "nw_src=10.0.0.1/32", "nw_dst=10.1.2.0/24", "nw_tos=32"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestUnsupportedActionDecode(t *testing.T) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint16(buf[0:2], uint16(ActEnqueue))
	binary.BigEndian.PutUint16(buf[2:4], 8)
	if _, err := UnmarshalActions(buf); err == nil {
		t.Error("decoding enqueue action succeeded, want error")
	}
}

// TestOutputActionDecodeDoesNotAllocate: decoding into a recycled action
// slice boxes no output action that is a low port without MaxLen or that
// repeats what the slot held before; a changed high port still decodes
// correctly.
func TestOutputActionDecodeDoesNotAllocate(t *testing.T) {
	low := MarshalActions([]Action{ActionOutput{Port: 3}})
	ctrl := MarshalActions([]Action{ActionOutput{Port: PortController, MaxLen: 128}})
	dst := make([]Action, 0, 1)
	for name, wire := range map[string][]byte{"low port": low, "repeated output:controller": ctrl} {
		// The first decode fills the slot the later ones find.
		if n := testing.AllocsPerRun(100, func() {
			if _, err := UnmarshalActionsAppend(dst[:0], wire); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %.0f allocations per decode, want 0", name, n)
		}
	}
	other := ActionOutput{Port: 0x1234, MaxLen: 7}
	got, err := UnmarshalActionsAppend(dst[:0], MarshalActions([]Action{other}))
	if err != nil || len(got) != 1 || got[0] != other {
		t.Errorf("decode over a stale slot = %v, %v; want [%v]", got, err, other)
	}
}

func TestFlowStatsEntriesRoundTrip(t *testing.T) {
	entries := []FlowStatsEntry{
		{TableID: 0, Match: sampleMatch(), Priority: 5, Cookie: 9,
			PacketCount: 100, ByteCount: 6400,
			Actions: []Action{ActionOutput{Port: 3}}},
		{TableID: 0, Match: MatchAll(), Priority: 1},
	}
	var body []byte
	for i := range entries {
		body = append(body, entries[i].Marshal()...)
	}
	got, err := UnmarshalFlowStatsEntries(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].Match != entries[i].Match || got[i].Priority != entries[i].Priority ||
			got[i].PacketCount != entries[i].PacketCount || !ActionsEqual(got[i].Actions, entries[i].Actions) {
			t.Errorf("entry %d mismatch: %+v vs %+v", i, got[i], entries[i])
		}
	}
}

func TestTableStatsEntriesRoundTrip(t *testing.T) {
	entries := []TableStatsEntry{
		{TableID: 0, Name: "hardware", Wildcards: WcAll, MaxEntries: 1500, ActiveCount: 300, LookupCount: 10, MatchedCount: 9},
	}
	got, err := UnmarshalTableStatsEntries(entries[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != entries[0] {
		t.Errorf("round trip mismatch: %+v vs %+v", got, entries)
	}
}
