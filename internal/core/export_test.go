package core

// MachineParams exposes machineParams to the external tests, which
// price a compiled program on the machine it would run on.
var MachineParams = machineParams
