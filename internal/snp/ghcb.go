package snp

import (
	"encoding/binary"
	"fmt"
)

// GHCBPayloadSize is the size of the protocol scratch area inside a GHCB.
const GHCBPayloadSize = 2048

// GHCB is the guest-hypervisor communication block: a *shared* (unencrypted)
// page through which the guest voluntarily exposes the state a hypercall
// needs (§3, Fig. 1). Because the page is shared, everything written here is
// visible to the untrusted hypervisor — protocols must never place secrets
// in it.
type GHCB struct {
	ExitCode  uint64 // reason for the exit (see the hv package codes)
	ExitInfo1 uint64
	ExitInfo2 uint64
	SwScratch uint64
	Payload   [GHCBPayloadSize]byte
}

// ghcbHeaderSize is the marshalled size of the fixed GHCB fields.
const ghcbHeaderSize = 4 * 8

// ghcbSize is the total marshalled size; it must fit one page.
const ghcbSize = ghcbHeaderSize + GHCBPayloadSize

// marshal encodes the GHCB into buf (which must be at least ghcbSize long).
func (g *GHCB) marshal(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:], g.ExitCode)
	binary.LittleEndian.PutUint64(buf[8:], g.ExitInfo1)
	binary.LittleEndian.PutUint64(buf[16:], g.ExitInfo2)
	binary.LittleEndian.PutUint64(buf[24:], g.SwScratch)
	copy(buf[ghcbHeaderSize:ghcbSize], g.Payload[:])
}

// unmarshal decodes the GHCB from buf.
func (g *GHCB) unmarshal(buf []byte) {
	g.unmarshalHeader(buf)
	copy(g.Payload[:], buf[ghcbHeaderSize:ghcbSize])
}

// unmarshalHeader decodes only the fixed fields from buf.
func (g *GHCB) unmarshalHeader(buf []byte) {
	g.ExitCode = binary.LittleEndian.Uint64(buf[0:])
	g.ExitInfo1 = binary.LittleEndian.Uint64(buf[8:])
	g.ExitInfo2 = binary.LittleEndian.Uint64(buf[16:])
	g.SwScratch = binary.LittleEndian.Uint64(buf[24:])
}

// GuestWriteGHCB stores g into the shared page at phys on behalf of guest
// software at the given VMPL/CPL. The RMP check is real: if the OS maps a
// guest-private page as a "GHCB" the write still works (it owns the page),
// but the hypervisor will be unable to read it and the exit will fail — the
// behaviour §6.2 relies on ("If the operating system does not map the GHCB
// correctly, the CVM crashes on an attempted domain switch").
func (m *Machine) GuestWriteGHCB(vmpl VMPL, cpl CPL, phys uint64, g *GHCB) error {
	if PageOffset(phys) != 0 {
		return fmt.Errorf("snp: GHCB must be page aligned, got %#x", phys)
	}
	var buf [ghcbSize]byte
	g.marshal(buf[:])
	return m.GuestWritePhys(vmpl, cpl, phys, buf[:])
}

// GuestReadGHCB loads the GHCB at phys for guest software (e.g. an enclave
// reading a syscall result staged by the untrusted application).
func (m *Machine) GuestReadGHCB(vmpl VMPL, cpl CPL, phys uint64, g *GHCB) error {
	var buf [ghcbSize]byte
	if err := m.GuestReadPhys(vmpl, cpl, phys, buf[:]); err != nil {
		return err
	}
	g.unmarshal(buf[:])
	return nil
}

// HVReadGHCB is the hypervisor's view of a GHCB. It fails on guest-private
// pages, exactly like real hardware returning ciphertext.
func (m *Machine) HVReadGHCB(phys uint64, g *GHCB) error {
	var buf [ghcbSize]byte
	if err := m.HVReadPhys(phys, buf[:]); err != nil {
		return err
	}
	g.unmarshal(buf[:])
	return nil
}

// HVReadGHCBHeader is HVReadGHCB for the fixed fields only (ExitCode,
// ExitInfo1/2, SwScratch); g.Payload is left untouched. Exit dispatch needs
// nothing more, and skipping the payload copy keeps the common exits cheap.
// The RMP check and its denial are the same as a full read's.
func (m *Machine) HVReadGHCBHeader(phys uint64, g *GHCB) error {
	var buf [ghcbHeaderSize]byte
	if err := m.HVReadPhys(phys, buf[:]); err != nil {
		return err
	}
	g.unmarshalHeader(buf[:])
	return nil
}

// HVWriteGHCBScratch lets the hypervisor store a reply code into the
// SwScratch field of a shared GHCB page, leaving the rest of the block as
// the guest wrote it.
func (m *Machine) HVWriteGHCBScratch(phys, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.HVWritePhys(phys+24, buf[:]) // SwScratch is header word 3 (see marshal)
}

// HVWriteGHCB lets the hypervisor stage a reply into a shared GHCB page.
func (m *Machine) HVWriteGHCB(phys uint64, g *GHCB) error {
	var buf [ghcbSize]byte
	g.marshal(buf[:])
	return m.HVWritePhys(phys, buf[:])
}
