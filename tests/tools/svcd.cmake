# Drives tools/svcd end to end over a file-backed state directory.
#
#   cmake -DSVCD=<exe> -DWORK=<scratch dir> -P svcd.cmake
#
# 1. Generates a demo feed, ingests it, and checks that --status recovers
#    from the checkpoint (from_checkpoint=yes, checkpoint=ok) with the same
#    alarm lines the ingest run printed.
# 2. Flips one checkpoint byte and checks that --status names the rung the
#    checkpoint was refused at, that the refused bytes are kept as
#    ckpt.snap.refused through a re-ingest that writes a fresh checkpoint,
#    and that the fresh checkpoint opens.
# 3. Plants a checkpoint in the version-2 envelope layout (hand-built bytes)
#    and checks that it is refused with a typed rung, never misparsed.

# Runs svcd with the given arguments; fails unless it exits 0, and stores its
# stdout in `out_var`.
function(run_svcd out_var)
  execute_process(COMMAND "${SVCD}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(JOIN " " args ${ARGN})
  message("$ svcd ${args}\n${out}${err}")
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "svcd ${args} exited with '${rc}'")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_match text regex)
  if(NOT text MATCHES "${regex}")
    message(FATAL_ERROR "output does not match '${regex}'")
  endif()
endfunction()

# Writes the bytes spelled by a hex string to `path`. CMake strings cannot
# hold a NUL byte, so the bytes go through printf's octal escapes.
function(write_hex path hex)
  string(LENGTH "${hex}" n)
  math(EXPR last "${n} - 2")
  set(escaped "")
  foreach(i RANGE 0 ${last} 2)
    string(SUBSTRING "${hex}" ${i} 2 byte)
    math(EXPR v "0x${byte}")
    math(EXPR d2 "${v} / 64")
    math(EXPR d1 "(${v} / 8) % 8")
    math(EXPR d0 "${v} % 8")
    string(APPEND escaped "\\${d2}${d1}${d0}")
  endforeach()
  execute_process(COMMAND sh -c "printf '${escaped}' > '${path}'"
                  RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "cannot write ${path}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(feed "${WORK}/feed.jsonl")
set(state "${WORK}/state")

# 1. Ingest, then recover from the checkpoint alone.
run_svcd(gen --gen_feed=${feed} --ticks=300 --tenants=3)
run_svcd(ingest --state_dir=${state} --feed=${feed})
run_svcd(status --state_dir=${state} --status)
expect_match("${status}" "\nsvcd: checkpoint=ok\n")
expect_match("${status}" "recovery: from_checkpoint=yes ")
string(REGEX MATCHALL "\n  t=[0-9]+ tenant=[0-9]+ RAISED" ingest_alarms
       "${ingest}")
string(REGEX MATCHALL "\n  t=[0-9]+ tenant=[0-9]+ RAISED" status_alarms
       "${status}")
if(NOT ingest_alarms OR NOT ingest_alarms STREQUAL status_alarms)
  message(FATAL_ERROR "alarm lines differ: ingest '${ingest_alarms}' vs "
                      "status '${status_alarms}'")
endif()

# 2. One flipped byte inside the checkpoint body.
file(READ "${state}/ckpt.snap" hex HEX)
string(SUBSTRING "${hex}" 200 2 byte)
math(EXPR xored "0x${byte} ^ 0x20" OUTPUT_FORMAT HEXADECIMAL)
string(SUBSTRING "${xored}" 2 -1 xored)
string(LENGTH "${xored}" len)
if(len EQUAL 1)
  set(xored "0${xored}")
endif()
string(SUBSTRING "${hex}" 0 200 head)
string(SUBSTRING "${hex}" 202 -1 tail)
write_hex("${state}/ckpt.snap" "${head}${xored}${tail}")
file(READ "${state}/ckpt.snap" flipped_hex HEX)
run_svcd(flipped --state_dir=${state} --status)
expect_match("${flipped}" "\nsvcd: checkpoint=bad_checksum \\(refused\\)\n")
expect_match("${flipped}" "\nsvcd: refused checkpoint kept as ")
expect_match("${flipped}" "\nstate: cold start ")

# The refused bytes survive an ingest whose checkpoint replaces ckpt.snap,
# and the fresh checkpoint then opens cleanly.
run_svcd(reingest --state_dir=${state} --feed=${feed})
expect_match("${reingest}" "\nsvcd: checkpoint=bad_checksum \\(refused\\)\n")
file(READ "${state}/ckpt.snap.refused" refused_hex HEX)
if(NOT refused_hex STREQUAL flipped_hex)
  message(FATAL_ERROR "ckpt.snap.refused does not hold the refused bytes")
endif()
file(READ "${state}/ckpt.snap" fresh_hex HEX)
if(fresh_hex STREQUAL flipped_hex)
  message(FATAL_ERROR "the ingest did not write a fresh checkpoint")
endif()
run_svcd(fresh --state_dir=${state} --status)
expect_match("${fresh}" "\nsvcd: checkpoint=ok\n")

# 3. A version-2 envelope: magic | U32 2 | Str "svc_checkpoint" | U64 config
#    fingerprint | U64 fnv1a(payload) | U64 payload length | payload, with a
#    one-field payload whose checksum and length are self-consistent.
file(MAKE_DIRECTORY "${WORK}/v2")
string(CONCAT v2
  "534453534e415000"
  "750200000000000000"
  "530e00000000000000" "7376635f636865636b706f696e74"
  "5585368748b11a5851"
  "5583a80437fea718e9"
  "550900000000000000"
  "492c01000000000000")
write_hex("${WORK}/v2/ckpt.snap" "${v2}")
run_svcd(v2 --state_dir=${WORK}/v2 --status)
expect_match("${v2}" "\nsvcd: checkpoint=bad_length \\(refused\\)\n")
expect_match("${v2}" "\nstate: cold start ")
