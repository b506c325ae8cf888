package shapes

// ArmName is declared and called on arm64 only.
func ArmName() string { return "arm64" }

// ArmUnused is declared on arm64 only, and called nowhere.
func ArmUnused() {}
