package of

import (
	"encoding/binary"
	"fmt"
)

// ActionType identifies an OpenFlow 1.0 action (ofp_action_type).
type ActionType uint16

const (
	ActOutput     ActionType = 0
	ActSetVLANVID ActionType = 1
	ActSetVLANPCP ActionType = 2
	ActStripVLAN  ActionType = 3
	ActSetDLSrc   ActionType = 4
	ActSetDLDst   ActionType = 5
	ActSetNWSrc   ActionType = 6
	ActSetNWDst   ActionType = 7
	ActSetNWTOS   ActionType = 8
	ActSetTPSrc   ActionType = 9
	ActSetTPDst   ActionType = 10
	ActEnqueue    ActionType = 11
	ActVendor     ActionType = 0xffff
)

// Action is a single entry of a FlowMod/PacketOut action list.
type Action interface {
	ActionType() ActionType
	// marshal appends the encoded action (with its type/len preamble) in
	// place into buf: no intermediate buffers are allocated.
	marshal(buf []byte) []byte
}

// putActionHeader writes the common ofp_action_header preamble.
func putActionHeader(b []byte, t ActionType, l uint16) {
	binary.BigEndian.PutUint16(b[0:2], uint16(t))
	binary.BigEndian.PutUint16(b[2:4], l)
}

// ActionOutput forwards the packet to a port. MaxLen limits the bytes sent
// to the controller when Port == PortController.
type ActionOutput struct {
	Port   uint16
	MaxLen uint16
}

func (a ActionOutput) ActionType() ActionType { return ActOutput }

func (a ActionOutput) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, ActOutput, 8)
	binary.BigEndian.PutUint16(b[4:6], a.Port)
	binary.BigEndian.PutUint16(b[6:8], a.MaxLen)
	return buf
}

func (a ActionOutput) String() string { return fmt.Sprintf("output:%d", a.Port) }

// ActionSetVLANVID rewrites the VLAN id (adding an 802.1Q header if absent).
type ActionSetVLANVID struct{ VID uint16 }

func (a ActionSetVLANVID) ActionType() ActionType { return ActSetVLANVID }

func (a ActionSetVLANVID) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, ActSetVLANVID, 8)
	binary.BigEndian.PutUint16(b[4:6], a.VID)
	return buf
}

func (a ActionSetVLANVID) String() string { return fmt.Sprintf("set_vlan_vid:%d", a.VID) }

// ActionSetVLANPCP rewrites the VLAN priority bits.
type ActionSetVLANPCP struct{ PCP uint8 }

func (a ActionSetVLANPCP) ActionType() ActionType { return ActSetVLANPCP }

func (a ActionSetVLANPCP) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, ActSetVLANPCP, 8)
	b[4] = a.PCP
	return buf
}

func (a ActionSetVLANPCP) String() string { return fmt.Sprintf("set_vlan_pcp:%d", a.PCP) }

// ActionStripVLAN removes the 802.1Q header.
type ActionStripVLAN struct{}

func (ActionStripVLAN) ActionType() ActionType { return ActStripVLAN }

func (ActionStripVLAN) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, ActStripVLAN, 8)
	return buf
}

func (ActionStripVLAN) String() string { return "strip_vlan" }

// ActionSetDLAddr rewrites the Ethernet source or destination address.
type ActionSetDLAddr struct {
	Dst  bool // true = set dl_dst, false = set dl_src
	Addr EthAddr
}

func (a ActionSetDLAddr) ActionType() ActionType {
	if a.Dst {
		return ActSetDLDst
	}
	return ActSetDLSrc
}

func (a ActionSetDLAddr) marshal(buf []byte) []byte {
	buf, b := grow(buf, 16)
	putActionHeader(b, a.ActionType(), 16)
	copy(b[4:10], a.Addr[:])
	return buf
}

func (a ActionSetDLAddr) String() string {
	if a.Dst {
		return "set_dl_dst:" + a.Addr.String()
	}
	return "set_dl_src:" + a.Addr.String()
}

// ActionSetNWAddr rewrites the IPv4 source or destination address.
type ActionSetNWAddr struct {
	Dst  bool
	Addr [4]byte
}

func (a ActionSetNWAddr) ActionType() ActionType {
	if a.Dst {
		return ActSetNWDst
	}
	return ActSetNWSrc
}

func (a ActionSetNWAddr) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, a.ActionType(), 8)
	copy(b[4:8], a.Addr[:])
	return buf
}

func (a ActionSetNWAddr) String() string {
	dir := "src"
	if a.Dst {
		dir = "dst"
	}
	return fmt.Sprintf("set_nw_%s:%d.%d.%d.%d", dir, a.Addr[0], a.Addr[1], a.Addr[2], a.Addr[3])
}

// ActionSetNWTOS rewrites the IP ToS/DSCP field. RUM's probing rules use
// this action to stamp probe version numbers into probe packets.
type ActionSetNWTOS struct{ TOS uint8 }

func (a ActionSetNWTOS) ActionType() ActionType { return ActSetNWTOS }

func (a ActionSetNWTOS) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, ActSetNWTOS, 8)
	b[4] = a.TOS
	return buf
}

func (a ActionSetNWTOS) String() string { return fmt.Sprintf("set_nw_tos:%d", a.TOS) }

// ActionSetTPPort rewrites the TCP/UDP source or destination port.
type ActionSetTPPort struct {
	Dst  bool
	Port uint16
}

func (a ActionSetTPPort) ActionType() ActionType {
	if a.Dst {
		return ActSetTPDst
	}
	return ActSetTPSrc
}

func (a ActionSetTPPort) marshal(buf []byte) []byte {
	buf, b := grow(buf, 8)
	putActionHeader(b, a.ActionType(), 8)
	binary.BigEndian.PutUint16(b[4:6], a.Port)
	return buf
}

func (a ActionSetTPPort) String() string {
	dir := "src"
	if a.Dst {
		dir = "dst"
	}
	return fmt.Sprintf("set_tp_%s:%d", dir, a.Port)
}

// AppendActions appends an action list's wire format to buf.
func AppendActions(buf []byte, actions []Action) []byte {
	for _, a := range actions {
		buf = a.marshal(buf)
	}
	return buf
}

// MarshalActions encodes an action list into a fresh buffer.
func MarshalActions(actions []Action) []byte {
	return AppendActions(nil, actions)
}

// UnmarshalActions decodes a wire action list.
func UnmarshalActions(buf []byte) ([]Action, error) {
	return UnmarshalActionsAppend(nil, buf)
}

// boxedOutputs[p] is ActionOutput{Port: p} already converted to the Action
// interface. Putting a struct into an interface allocates, and "output to
// a physical port" is the action of nearly every FlowMod a controller
// sends, so the decoder hands out these shared values instead.
var boxedOutputs = func() (b [256]Action) {
	for p := range b {
		b[p] = ActionOutput{Port: uint16(p)}
	}
	return b
}()

// boxOutput returns a as an Action without allocating when it can: the
// pre-boxed value for a low port with no MaxLen, else stale if that holds
// an equal action, else a fresh box.
func boxOutput(a ActionOutput, stale Action) Action {
	if a.MaxLen == 0 && int(a.Port) < len(boxedOutputs) {
		return boxedOutputs[a.Port]
	}
	if prev, ok := stale.(ActionOutput); ok && prev == a {
		return stale
	}
	return a
}

// UnmarshalActionsAppend decodes a wire action list, appending the actions
// to dst. Decoders that own a reusable message struct pass the struct's
// existing slice truncated to zero so its capacity is reused — and with it
// the boxed output actions still sitting in the slots beyond len(dst): a
// recycled FlowMod that decodes the same output action as last time
// (output:controller with its MaxLen, a high port) takes the old box.
func UnmarshalActionsAppend(dst []Action, buf []byte) ([]Action, error) {
	actions := dst
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("of: truncated action header (%d bytes)", len(buf))
		}
		t := ActionType(binary.BigEndian.Uint16(buf[0:2]))
		l := int(binary.BigEndian.Uint16(buf[2:4]))
		if l < 8 || l%8 != 0 || l > len(buf) {
			return nil, fmt.Errorf("of: bad action length %d (type %d, %d bytes left)", l, t, len(buf))
		}
		body := buf[4:l]
		var a Action
		switch t {
		case ActOutput:
			var stale Action
			if len(actions) < cap(actions) {
				stale = actions[:len(actions)+1][len(actions)]
			}
			a = boxOutput(ActionOutput{
				Port:   binary.BigEndian.Uint16(body[0:2]),
				MaxLen: binary.BigEndian.Uint16(body[2:4]),
			}, stale)
		case ActSetVLANVID:
			a = ActionSetVLANVID{VID: binary.BigEndian.Uint16(body[0:2])}
		case ActSetVLANPCP:
			a = ActionSetVLANPCP{PCP: body[0]}
		case ActStripVLAN:
			a = ActionStripVLAN{}
		case ActSetDLSrc, ActSetDLDst:
			var addr EthAddr
			copy(addr[:], body[0:6])
			a = ActionSetDLAddr{Dst: t == ActSetDLDst, Addr: addr}
		case ActSetNWSrc, ActSetNWDst:
			var addr [4]byte
			copy(addr[:], body[0:4])
			a = ActionSetNWAddr{Dst: t == ActSetNWDst, Addr: addr}
		case ActSetNWTOS:
			a = ActionSetNWTOS{TOS: body[0]}
		case ActSetTPSrc, ActSetTPDst:
			a = ActionSetTPPort{Dst: t == ActSetTPDst, Port: binary.BigEndian.Uint16(body[0:2])}
		default:
			return nil, fmt.Errorf("of: unsupported action type %d", t)
		}
		actions = append(actions, a)
		buf = buf[l:]
	}
	return actions, nil
}

// ActionsEqual reports whether two action lists are identical (same actions
// in the same order). General probing uses this to decide whether a probe
// can distinguish the probed rule from a lower-priority rule (§3.2.2).
func ActionsEqual(a, b []Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
