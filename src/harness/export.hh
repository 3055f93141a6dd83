/**
 * @file
 * Machine-readable result export: whole-matrix and campaign results as
 * BENCH_<name>.json documents (JsonWriter/JsonExport), written to
 * GAZE_RESULTS_DIR when it is set, and the per-suite CSV text of a
 * campaign report (CsvExport).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gaze
{

/** A named grid of cells rendered as CSV text. */
class CsvExport
{
  public:
    /** @param name experiment id, e.g. "fig06_main". */
    explicit CsvExport(std::string name);

    /** Set the header row. */
    void header(std::vector<std::string> columns);

    /** Append a data row (quoted/escaped as needed). */
    void row(std::vector<std::string> cells);

    /** Render as CSV text. */
    std::string toCsv() const;

  private:
    static std::string escape(const std::string &cell);

    std::string name;
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Incremental JSON document builder with correct string escaping and
 * strictly finite numbers (non-finite doubles become null). Usage
 * errors (value without a key inside an object, unbalanced scopes)
 * are fatal assertions, so a malformed document can never be written.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Start a "key": inside the current object. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /**
     * A double with round-trip precision (%.17g): parsing the text
     * back yields the same value. value(double) rounds to 10
     * significant digits for readable documents; a record that is
     * read back and computed from (a cached IPC) needs this instead.
     */
    JsonWriter &exactValue(double v);

    /** Explicit null (e.g. "no trace provenance"). */
    JsonWriter &nullValue();

    /** Shorthand for key(k).value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        return key(k).value(v);
    }

    /** Finished document text (fatal if scopes are still open). */
    std::string str() const;

  private:
    enum class Scope { Object, Array };

    void separate();
    void append(const std::string &text);
    JsonWriter &number(double v, const char *format);
    static std::string escape(const std::string &s);

    std::string out;
    std::vector<Scope> stack;
    std::vector<bool> first;   ///< no comma needed yet, per scope
    bool keyPending = false;
    bool rootUsed = false;     ///< exactly one top-level value allowed
};

/** Write @p text to @p path, replacing it; fatal on any I/O failure. */
void writeTextFile(const std::string &path, const std::string &text);

/**
 * Write this build's provenance into @p j's open object: "git_sha"
 * (the revision the build was configured from, "unknown" outside a
 * git checkout), "build_type" and "cxx_flags". Published numbers (the
 * BENCH files, the daemon's status) carry it, so each can be traced
 * to the code and flags that produced it.
 */
void writeBuildProvenance(JsonWriter &j);

/**
 * A named JSON result document destined for "BENCH_<name>.json",
 * written to $GAZE_RESULTS_DIR (or to an explicit path via writeTo,
 * which the gaze_sim --out flag uses).
 */
class JsonExport
{
  public:
    /**
     * @param name experiment id, e.g. "gaze_sim".
     * @param json_text the finished document (JsonWriter::str()).
     */
    JsonExport(std::string name, std::string json_text);

    /** Default file name: BENCH_<name>.json. */
    std::string fileName() const;

    /**
     * Default location: $GAZE_RESULTS_DIR/BENCH_<name>.json when the
     * variable is set, BENCH_<name>.json in the cwd otherwise.
     */
    std::string defaultPath() const;

    /** Write to defaultPath(); returns it. Fatal if not writable. */
    std::string write() const;

    /** Write to an explicit path. Fatal if not writable. */
    std::string writeTo(const std::string &path) const;

  private:
    std::string name;
    std::string text;
};

} // namespace gaze
