package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"

	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

// cacheKeyEnvelope is what gets hashed. Both members are plain exported
// data, and encoding/json emits struct fields in declaration order and map
// keys sorted, so the encoding — and therefore the key — is deterministic
// for equal inputs.
type cacheKeyEnvelope struct {
	// Version bumps whenever the characterization semantics change, so a
	// persisted warm-start cache from an older engine can never satisfy a
	// newer engine's lookups.
	Version int               `json:"version"`
	Config  soc.Config        `json:"config"`
	Params  microbench.Params `json:"params"`
}

// cacheKeyVersion mirrors the persist format's notion of "same physics":
// bump it together with framework's persistFormatVersion.
const cacheKeyVersion = 1

// CacheKey derives the content-hash cache key for characterizing a platform
// configuration with the given micro-benchmark parameters. Two (config,
// params) pairs collide exactly when their characterizations are
// interchangeable: the platform name is part of the config, but so is every
// physical parameter, so renamed-but-identical and same-named-but-retuned
// configs both hash apart.
func CacheKey(cfg soc.Config, p microbench.Params) (string, error) {
	raw, err := json.Marshal(cacheKeyEnvelope{Version: cacheKeyVersion, Config: cfg, Params: p})
	if err != nil {
		return "", fmt.Errorf("engine: hash cache key: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Device is a platform resolved for characterization: a configuration, the
// micro-benchmark parameters to characterize it at, and their CacheKey,
// derived once by NewDevice. A server resolves each device it serves once
// and carries the Device into every Request, so a warm question costs a
// memo lookup instead of a key derivation. The key is unexported: a Device
// only comes from NewDevice, so no caller can pair a config with a key it
// did not derive from.
type Device struct {
	cfg soc.Config
	p   microbench.Params
	key string
	err error
}

// errNoDevice is what Advise answers for a Request whose Device did not
// come from NewDevice.
var errNoDevice = errors.New("engine: request has no device (build one with NewDevice)")

// NewDevice resolves (cfg, p) into a Device, deriving its CacheKey. It
// keeps private copies of the reference-typed parts of its inputs (the
// instruction cost tables and MB2Fractions), so mutating them afterwards
// cannot desync the Device from its key. When the key cannot be derived,
// NewDevice returns that error together with a Device that still names cfg
// and fails every Advise with the same error, so a server can build its
// table once and still report the failure per question.
func NewDevice(cfg soc.Config, p microbench.Params) (Device, error) {
	p.MB2Fractions = slices.Clone(p.MB2Fractions)
	d := Device{cfg: cloneConfig(cfg), p: p}
	d.key, d.err = CacheKey(d.cfg, d.p)
	return d, d.err
}

// Name returns the device's platform name.
func (d Device) Name() string { return d.cfg.Name }

// Config returns a copy of the device's platform configuration that the
// caller may modify.
func (d Device) Config() soc.Config { return cloneConfig(d.cfg) }

// cacheKey returns the key NewDevice derived, or why there is none.
func (d Device) cacheKey() (string, error) {
	switch {
	case d.err != nil:
		return "", d.err
	case d.key == "":
		return "", errNoDevice
	}
	return d.key, nil
}

// cloneConfig copies cfg together with the cost tables its value shares by
// reference.
func cloneConfig(cfg soc.Config) soc.Config {
	cfg.CPU.Costs.Issue = maps.Clone(cfg.CPU.Costs.Issue)
	cfg.GPU.Costs.Issue = maps.Clone(cfg.GPU.Costs.Issue)
	return cfg
}
