// Package hwmodel replays instrumented protocol traces on models of
// the paper's four evaluation devices, reproducing the execution-time
// experiments (Table I, Figures 3 and 4) without AVR or Cortex-M
// silicon.
//
// # Substitution rationale
//
// The paper measures wall-clock protocol times on an ATmega2560, an
// S32K144, an STM32F767 and a Raspberry Pi 4. Across these devices the
// dominant cost is scalar multiplication on secp256r1; all protocol-
// level differences the paper discusses (STS vs S-ECDSA vs symmetric
// baselines, optimization pipelining) are differences in *which and
// how many* primitives run and *how they are scheduled*, not in
// device-specific microarchitecture. The model therefore:
//
//  1. prices every primitive in units of one P-256 point
//     multiplication (the cost model, cost.go);
//  2. calibrates each device's point-multiplication time so that the
//     modelled S-ECDSA protocol matches the paper's measured S-ECDSA
//     row of Table I exactly (one free parameter per device);
//  3. replays any protocol trace — including the STS pipelining
//     schedules of equations (5)–(8) — against those device costs.
//
// Everything except the four calibrated constants is then a
// *prediction*: cmd/kdbench prints each modelled Table I cell beside
// the paper's measured one, and TestTable1AgainstPaperShape bounds
// every cell within a factor of two of it.
package hwmodel

import "fmt"

// Class buckets devices the way §V-A does.
type Class string

const (
	// ClassLowEnd — 8-bit microcontrollers.
	ClassLowEnd Class = "low-end"
	// ClassMidTier — 32-bit Cortex-M automotive/industrial parts.
	ClassMidTier Class = "mid-tier"
	// ClassHighEnd — application-class 64-bit cores.
	ClassHighEnd Class = "high-end"
)

// Device is one modelled evaluation platform.
type Device struct {
	Name  string
	CPU   string
	Class Class
	// MHz is the nominal core clock, for reporting only.
	MHz float64
	// PointMulMS is the calibrated cost of one secp256r1 point
	// multiplication in milliseconds — the single free parameter per
	// device (see the package comment).
	PointMulMS float64
}

func (d Device) String() string { return d.Name }

// The paper's measured S-ECDSA row of Table I (milliseconds), used for
// calibration.
var paperSECDSA = map[string]float64{
	"ATmega2560":   36859.26,
	"S32K144":      2894.1,
	"STM32F767":    2521.77,
	"RaspberryPi4": 18.76,
}

// PaperTable1 holds every measured cell of the paper's Table I
// (milliseconds), which cmd/kdbench prints beside the modelled cells.
var PaperTable1 = map[string]map[string]float64{
	"S-ECDSA":        {"ATmega2560": 36859.26, "S32K144": 2894.1, "STM32F767": 2521.77, "RaspberryPi4": 18.76},
	"S-ECDSA (ext.)": {"ATmega2560": 36882.64, "S32K144": 2976.2, "STM32F767": 2602.69, "RaspberryPi4": 18.68},
	"STS":            {"ATmega2560": 46262.03, "S32K144": 3622.71, "STM32F767": 3162.07, "RaspberryPi4": 23.26},
	"STS (opt. I)":   {"ATmega2560": 41680.23, "S32K144": 3246.55, "STM32F767": 2818.02, "RaspberryPi4": 20.87},
	"STS (opt. II)":  {"ATmega2560": 32410.81, "S32K144": 2556.84, "STM32F767": 2219.25, "RaspberryPi4": 16.31},
	"SCIANC":         {"ATmega2560": 8990.49, "S32K144": 721.67, "STM32F767": 628.1, "RaspberryPi4": 4.58},
	"PORAMB":         {"ATmega2560": 17932.17, "S32K144": 1471.66, "STM32F767": 1263.0, "RaspberryPi4": 8.98},
}

// deviceSpecs lists the four platforms of §V-A before calibration.
var deviceSpecs = []Device{
	{Name: "ATmega2560", CPU: "AVR 8-bit", Class: ClassLowEnd, MHz: 16},
	{Name: "S32K144", CPU: "ARM Cortex-M4F", Class: ClassMidTier, MHz: 80},
	{Name: "STM32F767", CPU: "ARM Cortex-M7", Class: ClassMidTier, MHz: 216},
	{Name: "RaspberryPi4", CPU: "ARM Cortex-A72", Class: ClassHighEnd, MHz: 1500},
}

// DeviceByName finds a calibrated device in a model's device list.
func DeviceByName(devices []Device, name string) (Device, error) {
	for _, d := range devices {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("hwmodel: unknown device %q", name)
}
