#!/usr/bin/env bash
# Runs the shipped reference scenarios end to end. Outputs land under out/.
set -euo pipefail
cd "$(dirname "$0")/.."

distdetect spectral scenarios/reference_prop1.yaml
distdetect verify scenarios/reference_prop1.yaml --which prop1
distdetect verify scenarios/theorem1_8cycle.yaml --which theorem1
distdetect verify scenarios/theorem1_8cycle.yaml --which prop1
distdetect verify scenarios/reference_long.yaml --which prop1
distdetect simulate scenarios/reference_long.yaml
