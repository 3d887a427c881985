# Single source of truth for tool versions: CI calls these targets, so
# local runs and the merge gate use identical checker versions.
STATICCHECK_VERSION = 2025.1
GOVULNCHECK_VERSION = v1.1.3

GO ?= go
BIN := bin

.PHONY: all build test vet lint vuln bench-test check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet = stock go vet + the amber-vet invariant suite (see README,
# "Static analysis"). amber-vet runs twice on purpose: through go vet
# for per-package diagnostics with build caching, and standalone for the
# cross-package rules (duplicate metric names across packages) that a
# per-unit run cannot see.
vet: $(BIN)/amber-vet
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...
	$(GO) vet -vettool=$(abspath $(BIN)/amber-vet) ./...
	$(BIN)/amber-vet ./...

$(BIN)/amber-vet: FORCE
	$(GO) build -o $(BIN)/amber-vet ./cmd/amber-vet

FORCE:

# Network-dependent tools, version-pinned above. `go run pkg@version`
# keeps them out of go.mod (this module is dependency-free) while still
# giving reproducible checker versions.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# benchmark/ is its own module (outside ./...), so nothing above compiles
# it: this short-scale smoke keeps an internal/* rename from silently
# breaking the performance gate.
bench-test:
	$(GO) test -C benchmark ./...

check: build vet test bench-test

clean:
	rm -rf $(BIN)
