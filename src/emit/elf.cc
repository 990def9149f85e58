#include "emit/elf.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "support/log.h"

namespace balign {

namespace {

// ELF constants used here (names match the spec).
constexpr std::uint8_t kElfClass64 = 2;
constexpr std::uint8_t kElfData2Lsb = 1;
constexpr std::uint8_t kEvCurrent = 1;
constexpr std::uint16_t kEtRel = 1;
constexpr std::uint16_t kEmNone = 0;
constexpr std::uint16_t kEmX8664 = 62;
constexpr std::uint32_t kShtProgbits = 1;
constexpr std::uint32_t kShtSymtab = 2;
constexpr std::uint32_t kShtStrtab = 3;
constexpr std::uint32_t kShtRela = 4;
constexpr std::uint64_t kShfAlloc = 0x2;
constexpr std::uint64_t kShfExecinstr = 0x4;
constexpr std::uint64_t kShfInfoLink = 0x40;
constexpr std::uint8_t kStbGlobal = 1;
constexpr std::uint8_t kSttSection = 3;
constexpr std::uint8_t kSttFunc = 2;
constexpr std::uint32_t kRX8664Plt32 = 4;

#pragma pack(push, 1)
struct Ehdr
{
    std::uint8_t ident[16];
    std::uint16_t type;
    std::uint16_t machine;
    std::uint32_t version;
    std::uint64_t entry;
    std::uint64_t phoff;
    std::uint64_t shoff;
    std::uint32_t flags;
    std::uint16_t ehsize;
    std::uint16_t phentsize;
    std::uint16_t phnum;
    std::uint16_t shentsize;
    std::uint16_t shnum;
    std::uint16_t shstrndx;
};

struct Shdr
{
    std::uint32_t name;
    std::uint32_t type;
    std::uint64_t flags;
    std::uint64_t addr;
    std::uint64_t offset;
    std::uint64_t size;
    std::uint32_t link;
    std::uint32_t info;
    std::uint64_t addralign;
    std::uint64_t entsize;
};

struct Sym
{
    std::uint32_t name;
    std::uint8_t info;
    std::uint8_t other;
    std::uint16_t shndx;
    std::uint64_t value;
    std::uint64_t size;
};

struct Rela
{
    std::uint64_t offset;
    std::uint64_t info;
    std::int64_t addend;
};
#pragma pack(pop)

static_assert(sizeof(Ehdr) == 64, "Ehdr layout");
static_assert(sizeof(Shdr) == 64, "Shdr layout");
static_assert(sizeof(Sym) == 24, "Sym layout");
static_assert(sizeof(Rela) == 24, "Rela layout");

/// Incrementally built string table; offset 0 is the empty string.
class StringTable
{
  public:
    StringTable() : bytes_(1, 0) {}

    std::uint32_t
    add(const std::string &name)
    {
        const auto offset = static_cast<std::uint32_t>(bytes_.size());
        bytes_.insert(bytes_.end(), name.begin(), name.end());
        bytes_.push_back(0);
        return offset;
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
};

template <typename T>
void
appendStruct(std::vector<std::uint8_t> &out, const T &value)
{
    // resize + memcpy rather than insert of a byte range: g++ 12 at -O3
    // misreads the insert into a freshly reserved vector as an overflow
    // (-Wstringop-overflow).
    const std::size_t at = out.size();
    out.resize(at + sizeof(T));
    std::memcpy(out.data() + at, &value, sizeof(T));
}

}  // namespace

std::vector<std::uint8_t>
encodeText(const RelaxedLayout &relaxed, const EncodingModel &model)
{
    std::vector<std::uint8_t> text;
    text.reserve(relaxed.totalBytes);
    for (const RelaxedInstr &instr : relaxed.instrs) {
        const std::size_t before = text.size();
        // Calls carry their displacement in a relocation, not the bytes.
        const std::int64_t disp =
            instr.cls == InstrClass::Call ? 0 : instr.disp;
        model.encode(instr.cls, instr.form, disp, text);
        if (text.size() - before != instr.size)
            panic("encodeText: %s/%s encoded %zu bytes, relaxed to %u",
                  instrClassName(instr.cls), branchFormName(instr.form),
                  text.size() - before, instr.size);
    }
    if (text.size() != relaxed.totalBytes)
        panic("encodeText: %zu bytes encoded, %llu relaxed", text.size(),
              static_cast<unsigned long long>(relaxed.totalBytes));
    return text;
}

std::vector<std::uint8_t>
buildElfObject(const Program &program, const RelaxedLayout &relaxed,
               const EncodingModel &model)
{
    const std::vector<std::uint8_t> text = encodeText(relaxed, model);

    // Symbol table: null, .text section symbol, then one GLOBAL STT_FUNC
    // per procedure in id order (symtab index = 2 + ProcId). sh_info is
    // the index of the first global (2).
    StringTable strtab;
    std::vector<std::uint8_t> symtab;
    {
        Sym null_sym{};
        appendStruct(symtab, null_sym);
        Sym text_sym{};
        text_sym.info = kSttSection;  // STB_LOCAL << 4 | STT_SECTION
        text_sym.shndx = 1;
        appendStruct(symtab, text_sym);
        for (const auto &proc : program.procs()) {
            Sym sym{};
            sym.name = strtab.add(proc.name());
            sym.info = static_cast<std::uint8_t>((kStbGlobal << 4) |
                                                 kSttFunc);
            sym.shndx = 1;
            sym.value = relaxed.procs[proc.id()].byteBase;
            sym.size = relaxed.procs[proc.id()].byteSize;
            appendStruct(symtab, sym);
        }
    }

    // Relocations: one per call site, against the callee's symbol. The
    // rel32 field starts one byte after the opcode under both models.
    std::vector<std::uint8_t> rela;
    for (const RelaxedInstr &instr : relaxed.instrs) {
        if (instr.cls != InstrClass::Call || instr.callee() == kNoProc)
            continue;
        Rela entry{};
        entry.offset = instr.byteAddr + 1;
        entry.info = (static_cast<std::uint64_t>(2 + instr.callee()) << 32) |
                     kRX8664Plt32;
        entry.addend = -4;
        appendStruct(rela, entry);
    }

    StringTable shstrtab;
    const char *section_names[6] = {"",        ".text",   ".rela.text",
                                    ".symtab", ".strtab", ".shstrtab"};
    std::uint32_t name_offsets[6] = {};
    for (int i = 1; i < 6; ++i)
        name_offsets[i] = shstrtab.add(section_names[i]);

    // Lay the file out: header, section payloads (8-byte aligned), then
    // the section header table.
    const std::vector<std::uint8_t> *payloads[6] = {
        nullptr, &text, &rela, &symtab, &strtab.bytes(), &shstrtab.bytes()};
    std::uint64_t offsets[6] = {};
    std::uint64_t cursor = sizeof(Ehdr);
    for (int i = 1; i < 6; ++i) {
        cursor = (cursor + 7) & ~std::uint64_t{7};
        offsets[i] = cursor;
        cursor += payloads[i]->size();
    }
    cursor = (cursor + 7) & ~std::uint64_t{7};
    const std::uint64_t shoff = cursor;

    Ehdr ehdr{};
    std::memcpy(ehdr.ident, "\x7f"
                            "ELF",
                4);
    ehdr.ident[4] = kElfClass64;
    ehdr.ident[5] = kElfData2Lsb;
    ehdr.ident[6] = kEvCurrent;
    ehdr.type = kEtRel;
    ehdr.machine = model.kind() == EncodingModelKind::Variable ? kEmX8664
                                                               : kEmNone;
    ehdr.version = kEvCurrent;
    ehdr.shoff = shoff;
    ehdr.ehsize = sizeof(Ehdr);
    ehdr.shentsize = sizeof(Shdr);
    ehdr.shnum = 6;
    ehdr.shstrndx = 5;

    Shdr shdrs[6] = {};
    auto set = [&](int i, std::uint32_t type, std::uint64_t flags,
                   std::uint32_t link, std::uint32_t info,
                   std::uint64_t addralign, std::uint64_t entsize) {
        shdrs[i].name = name_offsets[i];
        shdrs[i].type = type;
        shdrs[i].flags = flags;
        shdrs[i].offset = offsets[i];
        shdrs[i].size = payloads[i]->size();
        shdrs[i].link = link;
        shdrs[i].info = info;
        shdrs[i].addralign = addralign;
        shdrs[i].entsize = entsize;
    };
    set(1, kShtProgbits, kShfAlloc | kShfExecinstr, 0, 0, 16, 0);
    set(2, kShtRela, kShfInfoLink, 3, 1, 8, sizeof(Rela));
    set(3, kShtSymtab, 0, 4, 2, 8, sizeof(Sym));
    set(4, kShtStrtab, 0, 0, 0, 1, 0);
    set(5, kShtStrtab, 0, 0, 0, 1, 0);

    std::vector<std::uint8_t> out;
    out.reserve(shoff + 6 * sizeof(Shdr));
    appendStruct(out, ehdr);
    for (int i = 1; i < 6; ++i) {
        out.resize(offsets[i], 0);
        out.insert(out.end(), payloads[i]->begin(), payloads[i]->end());
    }
    out.resize(shoff, 0);
    for (const Shdr &shdr : shdrs)
        appendStruct(out, shdr);
    return out;
}

bool
writeElfObject(const std::string &path, const Program &program,
               const RelaxedLayout &relaxed, const EncodingModel &model)
{
    const std::vector<std::uint8_t> bytes =
        buildElfObject(program, relaxed, model);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("emit: cannot open %s for writing", path.c_str());
        return false;
    }
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
        warn("emit: short write to %s", path.c_str());
        return false;
    }
    return true;
}

namespace {

/// Bounds-checked struct read; false (untouched output) when the range
/// escapes the buffer.
template <typename T>
bool
readStruct(const std::vector<std::uint8_t> &bytes, std::uint64_t offset,
           T &out)
{
    if (offset > bytes.size() || bytes.size() - offset < sizeof(T))
        return false;
    std::memcpy(&out, bytes.data() + offset, sizeof(T));
    return true;
}

/// NUL-terminated string at @p offset of a string-table payload.
bool
readName(const std::vector<std::uint8_t> &table, std::uint64_t offset,
         std::string &out)
{
    if (offset >= table.size())
        return false;
    const auto *begin = table.data() + offset;
    const auto *end = table.data() + table.size();
    const auto *nul = std::find(begin, end, std::uint8_t{0});
    if (nul == end)
        return false;
    out.assign(reinterpret_cast<const char *>(begin),
               static_cast<std::size_t>(nul - begin));
    return true;
}

}  // namespace

ParsedElf
parseElfObject(const std::vector<std::uint8_t> &bytes)
{
    ParsedElf parsed;
    auto fail = [&parsed](const char *why) -> ParsedElf & {
        parsed.ok = false;
        parsed.error = why;
        return parsed;
    };

    Ehdr ehdr{};
    if (!readStruct(bytes, 0, ehdr))
        return fail("file shorter than an ELF header");
    if (std::memcmp(ehdr.ident,
                    "\x7f"
                    "ELF",
                    4) != 0)
        return fail("bad ELF magic");
    if (ehdr.ident[4] != kElfClass64)
        return fail("not ELFCLASS64");
    if (ehdr.ident[5] != kElfData2Lsb)
        return fail("not little-endian");
    if (ehdr.type != kEtRel)
        return fail("not a relocatable (ET_REL) object");
    if (ehdr.shentsize != sizeof(Shdr))
        return fail("unexpected section header entry size");
    parsed.type = ehdr.type;
    parsed.machine = ehdr.machine;

    if (ehdr.shnum == 0)
        return fail("no sections");
    std::vector<Shdr> shdrs(ehdr.shnum);
    for (std::uint16_t i = 0; i < ehdr.shnum; ++i) {
        if (!readStruct(bytes, ehdr.shoff + i * sizeof(Shdr), shdrs[i]))
            return fail("section header table out of bounds");
    }
    if (ehdr.shstrndx >= ehdr.shnum)
        return fail("e_shstrndx out of range");

    auto payload = [&bytes](const Shdr &shdr,
                            std::vector<std::uint8_t> &out) {
        if (shdr.offset > bytes.size() ||
            bytes.size() - shdr.offset < shdr.size)
            return false;
        out.assign(bytes.begin() + static_cast<std::ptrdiff_t>(shdr.offset),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(shdr.offset + shdr.size));
        return true;
    };

    std::vector<std::uint8_t> shstrtab;
    if (!payload(shdrs[ehdr.shstrndx], shstrtab))
        return fail("section name table out of bounds");
    for (const Shdr &shdr : shdrs) {
        std::string name;
        if (!readName(shstrtab, shdr.name, name) && shdr.name != 0)
            return fail("section name offset out of bounds");
        parsed.sectionNames.push_back(name);
    }

    int text_index = -1, symtab_index = -1, strtab_index = -1,
        rela_index = -1;
    for (std::size_t i = 0; i < parsed.sectionNames.size(); ++i) {
        if (parsed.sectionNames[i] == ".text")
            text_index = static_cast<int>(i);
        else if (parsed.sectionNames[i] == ".symtab")
            symtab_index = static_cast<int>(i);
        else if (parsed.sectionNames[i] == ".strtab")
            strtab_index = static_cast<int>(i);
        else if (parsed.sectionNames[i] == ".rela.text")
            rela_index = static_cast<int>(i);
    }
    if (text_index < 0)
        return fail("no .text section");
    if (symtab_index < 0 || strtab_index < 0)
        return fail("no symbol table");
    if (!payload(shdrs[text_index], parsed.text))
        return fail(".text payload out of bounds");

    std::vector<std::uint8_t> symtab, strtab;
    if (!payload(shdrs[symtab_index], symtab))
        return fail(".symtab payload out of bounds");
    if (!payload(shdrs[strtab_index], strtab))
        return fail(".strtab payload out of bounds");
    if (symtab.size() % sizeof(Sym) != 0)
        return fail(".symtab size not a multiple of the entry size");
    for (std::uint64_t off = 0; off < symtab.size(); off += sizeof(Sym)) {
        Sym sym{};
        std::memcpy(&sym, symtab.data() + off, sizeof(Sym));
        ElfSymbolInfo info;
        if (!readName(strtab, sym.name, info.name))
            return fail("symbol name offset out of bounds");
        info.value = sym.value;
        info.size = sym.size;
        info.info = sym.info;
        info.shndx = sym.shndx;
        if (sym.shndx == text_index &&
            (sym.value > parsed.text.size() ||
             parsed.text.size() - sym.value < sym.size))
            return fail("symbol range escapes .text");
        parsed.symbols.push_back(std::move(info));
    }
    if (parsed.symbols.empty() || parsed.symbols[0].info != 0)
        return fail("missing null symbol");

    if (rela_index >= 0) {
        std::vector<std::uint8_t> rela;
        if (!payload(shdrs[rela_index], rela))
            return fail(".rela.text payload out of bounds");
        if (rela.size() % sizeof(Rela) != 0)
            return fail(".rela.text size not a multiple of the entry size");
        for (std::uint64_t off = 0; off < rela.size();
             off += sizeof(Rela)) {
            Rela entry{};
            std::memcpy(&entry, rela.data() + off, sizeof(Rela));
            ElfRelocation reloc;
            reloc.offset = entry.offset;
            reloc.symbol = static_cast<std::uint32_t>(entry.info >> 32);
            reloc.type = static_cast<std::uint32_t>(entry.info);
            reloc.addend = entry.addend;
            if (reloc.offset > parsed.text.size() ||
                parsed.text.size() - reloc.offset < 4)
                return fail("relocation field escapes .text");
            if (reloc.symbol >= parsed.symbols.size())
                return fail("relocation symbol index out of range");
            parsed.relocations.push_back(reloc);
        }
    }

    parsed.ok = true;
    return parsed;
}

}  // namespace balign
